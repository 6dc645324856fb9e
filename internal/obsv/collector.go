package obsv

import (
	"io"
	"sync"
	"time"
)

// Metric names of the families every Collector keeps, all prefixed
// rdfshapes_. docs/OBSERVABILITY.md lists every family /metrics serves,
// with the component that owns its count; a server test pins that list.
const (
	MetricQueries       = "rdfshapes_queries_total"
	MetricDuration      = "rdfshapes_query_duration_seconds"
	MetricQError        = "rdfshapes_plan_qerror"
	MetricRowsVisited   = "rdfshapes_index_rows_visited_total"
	MetricIntermediate  = "rdfshapes_intermediate_results_total"
	MetricResultRows    = "rdfshapes_result_rows_total"
	MetricTracesWritten = "rdfshapes_traces_recorded_total"
	MetricJoinAlgo      = "rdfshapes_join_algo_total"
)

// DurationBuckets are the latency histogram upper bounds in seconds,
// spanning sub-millisecond index lookups to the multi-second budget
// region.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// QErrorBuckets are the q-error histogram upper bounds, aligned with the
// <1.5 / [1.5,250) / ≥250 bands of the paper's Figure 4c–4d plus finer
// intermediate resolution.
var QErrorBuckets = []float64{1, 1.5, 2, 5, 10, 50, 250, 1000, 10000}

// Collector aggregates query traces into a bounded ring buffer and
// cumulative Prometheus metrics, and renders every registered family.
// All methods are safe for concurrent use and safe on a nil receiver
// (no-ops), per the package's nil-collector convention.
type Collector struct {
	ring *Ring

	queries      *CounterVec   // by planner, status
	duration     *HistogramVec // by planner
	qerror       *HistogramVec // by planner
	rowsVisited  *CounterVec
	intermediate *CounterVec
	resultRows   *CounterVec
	// joinAlgo (by algo) is registered by the first recorded join, so a
	// collector that never sees one, such as the router's, serves no
	// empty family.
	joinAlgo     *CounterVec
	joinAlgoOnce sync.Once

	mu       sync.Mutex
	families map[string]Family
}

// NewCollector returns a collector whose trace ring holds the last
// ringSize traces (<= 0 selects DefaultRingSize).
func NewCollector(ringSize int) *Collector {
	c := &Collector{
		ring: NewRing(ringSize),
		queries: NewCounterVec(MetricQueries,
			"Queries executed, by planner and outcome (ok|timeout|error).",
			"planner", "status"),
		duration: NewHistogramVec(MetricDuration,
			"Query execution wall time in seconds, by planner.",
			DurationBuckets, "planner"),
		qerror: NewHistogramVec(MetricQError,
			"Q-error of the estimated vs. actual final join cardinality, by planner (complete executions only).",
			QErrorBuckets, "planner"),
		rowsVisited: NewCounterVec(MetricRowsVisited,
			"Index rows visited by query execution."),
		intermediate: NewCounterVec(MetricIntermediate,
			"Intermediate results produced by query execution (the paper's plan-cost objective)."),
		resultRows: NewCounterVec(MetricResultRows,
			"Result rows produced by execution, before solution modifiers (LIMIT/OFFSET/DISTINCT)."),
		joinAlgo: NewCounterVec(MetricJoinAlgo,
			"Join steps executed, labeled by the physical join algorithm the optimizer selected (merge vs nested loop).",
			"algo"),
		families: map[string]Family{},
	}
	c.Register(c.queries, c.duration, c.qerror, c.rowsVisited, c.intermediate, c.resultRows,
		NewFunc(MetricTracesWritten, "Query traces recorded since start (including ring-evicted ones).",
			Counter, "", Value(func() float64 { return float64(c.ring.Total()) })))
	return c
}

// Register adds families to the registry, each replacing any family of
// the same name. It is the only way a family reaches WritePrometheus.
func (c *Collector) Register(fs ...Family) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range fs {
		c.families[f.Name()] = f
	}
}

// Record finalizes t (via Finish, when the caller has not already),
// stamps its time, stores it in the trace ring, and folds it into every
// cumulative metric. Safe on a nil receiver.
func (c *Collector) Record(t QueryTrace) {
	if c == nil {
		return
	}
	if len(t.Patterns) > 0 {
		t.Finish() // idempotent; ensures derived fields are consistent
	}
	if t.Time.IsZero() {
		t.Time = time.Now()
	}
	if len(t.Query) > MaxQueryLen {
		t.Query = t.Query[:MaxQueryLen]
	}
	planner := t.Planner
	if planner == "" {
		planner = "unknown"
	}
	status := "ok"
	switch {
	case t.Err != "":
		status = "error"
	case t.TimedOut:
		status = "timeout"
	}
	c.queries.Add(1, planner, status)
	c.duration.Observe(float64(t.WallNanos)/1e9, planner)
	c.rowsVisited.Add(float64(t.Ops))
	c.intermediate.Add(float64(t.ActualCost))
	c.resultRows.Add(float64(t.Rows))
	// Partial executions (budget or LIMIT cut) would pollute the q-error
	// distribution with lower-bound actuals; only complete runs count.
	if status == "ok" && !t.Partial() && len(t.Patterns) > 0 {
		c.qerror.Observe(t.QError, planner)
	}
	c.recordJoins(t.Patterns)
	c.ring.Add(t)
}

// recordJoins counts a trace's join steps by the algorithm that ran
// them. A merge prefix of k steps is k-1 joins: its first step is the
// leading scan.
func (c *Collector) recordJoins(steps []PatternTrace) {
	merge, nl := 0, 0
	for _, p := range steps {
		switch p.Algo {
		case "merge":
			merge++
		case "nl":
			nl++
		}
	}
	if merge > 0 {
		merge--
	}
	if merge+nl == 0 {
		return
	}
	c.joinAlgoOnce.Do(func() { c.Register(c.joinAlgo) })
	if merge > 0 {
		c.joinAlgo.Add(float64(merge), "merge")
	}
	if nl > 0 {
		c.joinAlgo.Add(float64(nl), "nl")
	}
}

// Recent returns up to n traces, newest first (n <= 0 means all held).
func (c *Collector) Recent(n int) []QueryTrace {
	if c == nil {
		return nil
	}
	return c.ring.Recent(n)
}

// TraceCount returns the number of traces ever recorded.
func (c *Collector) TraceCount() uint64 {
	if c == nil {
		return 0
	}
	return c.ring.Total()
}

// RingSize returns the trace buffer capacity.
func (c *Collector) RingSize() int {
	if c == nil {
		return 0
	}
	return len(c.ring.buf)
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), in name order.
func (c *Collector) WritePrometheus(w io.Writer) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	fams := make([]Family, 0, len(c.families))
	for _, n := range sortedKeys(c.families) {
		fams = append(fams, c.families[n])
	}
	c.mu.Unlock()
	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}
