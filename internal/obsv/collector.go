package obsv

import (
	"io"
	"sync"
	"time"
)

// Exported metric names, all prefixed rdfshapes_. docs/OBSERVABILITY.md
// documents each one; tests pin the full inventory.
const (
	MetricQueries       = "rdfshapes_queries_total"
	MetricDuration      = "rdfshapes_query_duration_seconds"
	MetricQError        = "rdfshapes_plan_qerror"
	MetricRowsVisited   = "rdfshapes_index_rows_visited_total"
	MetricIntermediate  = "rdfshapes_intermediate_results_total"
	MetricResultRows    = "rdfshapes_result_rows_total"
	MetricTracesWritten = "rdfshapes_traces_recorded_total"
)

// Adaptive re-optimization metric names (counted by the facade's
// per-template plan cache; see WithAdaptiveReplan in the root package).
const (
	MetricAdaptiveReplans = "rdfshapes_adaptive_replans_total"
	MetricTemplateQError  = "rdfshapes_template_qerror"
)

// Join-algorithm selection metric name: join steps executed, labeled by
// the physical algorithm the optimizer chose ({algo="merge"} vs
// {algo="nl"}). Counted by the facade from the engine's report of the
// actually executed merge width, so planner annotations that fall back
// at execution time are counted as nested-loop.
const MetricJoinAlgo = "rdfshapes_join_algo_total"

// Sharded-execution metric names (maintained as atomics by the shard
// coordinator, exported at scrape time by the server).
const (
	MetricShardRowsScanned = "rdfshapes_shard_rows_scanned_total"
	MetricShardsPruned     = "rdfshapes_shards_pruned_total"
)

// Durability metric names (counted by the facade around internal/wal).
const (
	MetricRecoveries         = "rdfshapes_recoveries_total"
	MetricRecordsReplayed    = "rdfshapes_wal_records_replayed_total"
	MetricTornTruncations    = "rdfshapes_wal_torn_truncations_total"
	MetricSnapshotFallbacks  = "rdfshapes_snapshot_fallbacks_total"
	MetricCheckpoints        = "rdfshapes_checkpoints_total"
	MetricCheckpointDuration = "rdfshapes_checkpoint_duration_seconds"
)

// Replication metric names (maintained by the follower and router in
// internal/repl, exported at scrape time by the server).
const (
	MetricReplLagRecords   = "rdfshapes_repl_lag_records"
	MetricReplStaleness    = "rdfshapes_repl_staleness_seconds"
	MetricReplConnected    = "rdfshapes_repl_connected"
	MetricReplApplied      = "rdfshapes_repl_records_applied_total"
	MetricReplReconnects   = "rdfshapes_repl_reconnects_total"
	MetricReplBootstraps   = "rdfshapes_repl_bootstraps_total"
	MetricReplTornStreams  = "rdfshapes_repl_torn_streams_total"
	MetricRouterEjections  = "rdfshapes_router_ejections_total"
	MetricRouterStaleReads = "rdfshapes_router_stale_reads_total"
	MetricRouterReadsPrim  = "rdfshapes_router_primary_reads_total"
	MetricRouterReadsRepl  = "rdfshapes_router_replica_reads_total"
)

// CheckpointDurationBuckets are the checkpoint-latency histogram upper
// bounds in seconds: checkpoints write a full snapshot, so the range
// sits well above query latencies.
var CheckpointDurationBuckets = []float64{
	0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

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
// cumulative Prometheus metrics. All methods are safe for concurrent use
// and safe on a nil receiver (no-ops), per the package's nil-collector
// convention.
type Collector struct {
	ring *Ring

	queries      *CounterVec   // by planner, status
	duration     *HistogramVec // by planner
	qerror       *HistogramVec // by planner
	rowsVisited  *CounterVec
	intermediate *CounterVec
	resultRows   *CounterVec

	mu           sync.Mutex
	gauges       map[string]GaugeFunc
	gaugeVecs    map[string]GaugeVecFunc   // labeled scrape-time gauges, by name
	counterVecs  map[string]CounterVecFunc // labeled scrape-time counters, by name
	counterFuncs map[string]CounterFunc    // unlabeled scrape-time counters, by name
	extra        map[string]*CounterVec    // auxiliary counters (Counter), by name
	extraH       map[string]*HistogramVec  // auxiliary histograms (Histogram), by name
}

// NewCollector returns a collector whose trace ring holds the last
// ringSize traces (<= 0 selects DefaultRingSize).
func NewCollector(ringSize int) *Collector {
	return &Collector{
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
		gauges: map[string]GaugeFunc{},
	}
}

// Counter returns the auxiliary counter family with the given name,
// declaring it on first use; later calls with the same name return the
// same family (the first call's help text and labels win). Auxiliary
// counters render in WritePrometheus after the built-in query metrics,
// sorted by name. On a nil collector it returns a detached counter, so
// callers can Add unconditionally per the nil-collector convention.
func (c *Collector) Counter(name, help string, labels ...string) *CounterVec {
	if c == nil {
		return NewCounterVec(name, help, labels...)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.extra == nil {
		c.extra = map[string]*CounterVec{}
	}
	if cv, ok := c.extra[name]; ok {
		return cv
	}
	cv := NewCounterVec(name, help, labels...)
	c.extra[name] = cv
	return cv
}

// Histogram returns the auxiliary histogram family with the given name,
// declaring it on first use with the given bucket bounds; later calls
// with the same name return the same family (the first call's help,
// buckets, and labels win). Auxiliary histograms render after auxiliary
// counters, sorted by name. On a nil collector it returns a detached
// histogram, so callers can Observe unconditionally.
func (c *Collector) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if c == nil {
		return NewHistogramVec(name, help, buckets, labels...)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.extraH == nil {
		c.extraH = map[string]*HistogramVec{}
	}
	if hv, ok := c.extraH[name]; ok {
		return hv
	}
	hv := NewHistogramVec(name, help, buckets, labels...)
	c.extraH[name] = hv
	return hv
}

// RegisterGauge installs (or replaces) a scrape-time gauge.
func (c *Collector) RegisterGauge(name, help string, fn func() float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gauges[name] = GaugeFunc{name: name, help: help, fn: fn}
}

// RegisterGaugeVec installs (or replaces) a labeled scrape-time gauge:
// at scrape time fn is called once and one series is written per map
// entry, the key becoming the value of the single label. Used for
// per-template facts whose key space is dynamic (the adaptive replan
// layer's per-template q-error).
func (c *Collector) RegisterGaugeVec(name, help, label string, fn func() map[string]float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gaugeVecs == nil {
		c.gaugeVecs = map[string]GaugeVecFunc{}
	}
	c.gaugeVecs[name] = GaugeVecFunc{name: name, help: help, label: label, fn: fn}
}

// RegisterCounterVec installs (or replaces) a labeled scrape-time
// counter: at scrape time fn is called once and one series is written
// per map entry, the key becoming the value of the single label. Used
// for cumulative counts maintained in hot-path atomics outside the
// collector (the shard coordinator's scanned-rows and pruning
// counters); fn must be monotonically non-decreasing per key.
func (c *Collector) RegisterCounterVec(name, help, label string, fn func() map[string]float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.counterVecs == nil {
		c.counterVecs = map[string]CounterVecFunc{}
	}
	c.counterVecs[name] = CounterVecFunc{name: name, help: help, label: label, fn: fn}
}

// RegisterCounter installs (or replaces) an unlabeled scrape-time
// counter: fn is read once per scrape and must be monotonically
// non-decreasing. Used for single-series cumulative counts kept in
// hot-path atomics.
func (c *Collector) RegisterCounter(name, help string, fn func() float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.counterFuncs == nil {
		c.counterFuncs = map[string]CounterFunc{}
	}
	c.counterFuncs[name] = CounterFunc{name: name, help: help, fn: fn}
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
	c.ring.Add(t)
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

// WritePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4): registered gauges first (sorted by name), then
// the trace counter and the cumulative query metrics.
func (c *Collector) WritePrometheus(w io.Writer) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	names := sortedKeys(c.gauges)
	gauges := make([]GaugeFunc, 0, len(names))
	for _, n := range names {
		gauges = append(gauges, c.gauges[n])
	}
	gvNames := sortedKeys(c.gaugeVecs)
	gaugeVecs := make([]GaugeVecFunc, 0, len(gvNames))
	for _, n := range gvNames {
		gaugeVecs = append(gaugeVecs, c.gaugeVecs[n])
	}
	cvNames := sortedKeys(c.counterVecs)
	counterVecs := make([]CounterVecFunc, 0, len(cvNames))
	for _, n := range cvNames {
		counterVecs = append(counterVecs, c.counterVecs[n])
	}
	cfNames := sortedKeys(c.counterFuncs)
	counterFuncs := make([]CounterFunc, 0, len(cfNames))
	for _, n := range cfNames {
		counterFuncs = append(counterFuncs, c.counterFuncs[n])
	}
	extraNames := sortedKeys(c.extra)
	extras := make([]*CounterVec, 0, len(extraNames))
	for _, n := range extraNames {
		extras = append(extras, c.extra[n])
	}
	extraHNames := sortedKeys(c.extraH)
	extraHs := make([]*HistogramVec, 0, len(extraHNames))
	for _, n := range extraHNames {
		extraHs = append(extraHs, c.extraH[n])
	}
	c.mu.Unlock()
	for _, g := range gauges {
		if err := g.write(w); err != nil {
			return err
		}
	}
	for _, g := range gaugeVecs {
		if err := g.write(w); err != nil {
			return err
		}
	}
	for _, cv := range counterVecs {
		if err := cv.write(w); err != nil {
			return err
		}
	}
	for _, cf := range counterFuncs {
		if err := cf.write(w); err != nil {
			return err
		}
	}
	if err := writeHeader(w, MetricTracesWritten, "Query traces recorded since start (including ring-evicted ones).", "counter"); err != nil {
		return err
	}
	if _, err := io.WriteString(w, MetricTracesWritten+" "+formatValue(float64(c.ring.Total()))+"\n"); err != nil {
		return err
	}
	for _, f := range []interface{ write(io.Writer) error }{
		c.queries, c.duration, c.qerror, c.rowsVisited, c.intermediate, c.resultRows,
	} {
		if err := f.write(w); err != nil {
			return err
		}
	}
	for _, cv := range extras {
		if err := cv.write(w); err != nil {
			return err
		}
	}
	for _, hv := range extraHs {
		if err := hv.write(w); err != nil {
			return err
		}
	}
	return nil
}
