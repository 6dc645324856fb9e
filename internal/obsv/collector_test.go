package obsv

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func sampleTrace() QueryTrace {
	return QueryTrace{
		Query:   "SELECT * WHERE { ?s ?p ?o }",
		Planner: "SS",
		Patterns: []PatternTrace{
			{Pattern: "?s a <C>", Estimated: 100, Actual: 100},
			{Pattern: "?s <p> ?o", Estimated: 50, Actual: 200, Algo: "nl"},
		},
		EstimatedCost: 150,
		Rows:          10,
		Ops:           345,
		WallNanos:     int64(2 * time.Millisecond),
	}
}

func TestQError(t *testing.T) {
	cases := []struct {
		est, act, want float64
	}{
		{100, 100, 1},
		{50, 200, 4},
		{200, 50, 4}, // symmetric
		{0, 10, 10},  // est clamped to 1
		{10, 0, 10},  // actual clamped to 1
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := QError(c.est, c.act); got != c.want {
			t.Errorf("QError(%v, %v) = %v, want %v", c.est, c.act, got, c.want)
		}
	}
}

func TestTraceFinish(t *testing.T) {
	tr := sampleTrace()
	tr.Finish()
	if tr.ActualCost != 300 {
		t.Errorf("ActualCost = %d, want 300", tr.ActualCost)
	}
	if tr.Patterns[0].QError != 1 || tr.Patterns[1].QError != 4 {
		t.Errorf("pattern q-errors = %v, %v, want 1, 4", tr.Patterns[0].QError, tr.Patterns[1].QError)
	}
	if tr.QError != 4 { // final intermediate: est 50 vs actual 200
		t.Errorf("QError = %v, want 4", tr.QError)
	}
}

func TestCollectorRecord(t *testing.T) {
	c := NewCollector(4)
	c.Record(sampleTrace())

	bad := sampleTrace()
	bad.Err = "boom"
	c.Record(bad)

	slow := sampleTrace()
	slow.TimedOut = true
	c.Record(slow)

	if got := c.queries.Value("SS", "ok"); got != 1 {
		t.Errorf(`queries{SS,ok} = %v, want 1`, got)
	}
	if got := c.queries.Value("SS", "error"); got != 1 {
		t.Errorf(`queries{SS,error} = %v, want 1`, got)
	}
	if got := c.queries.Value("SS", "timeout"); got != 1 {
		t.Errorf(`queries{SS,timeout} = %v, want 1`, got)
	}
	// q-error histogram only counts complete ok runs
	if got := c.qerror.Count("SS"); got != 1 {
		t.Errorf("qerror count = %d, want 1", got)
	}
	if got := c.duration.Count("SS"); got != 3 {
		t.Errorf("duration count = %d, want 3", got)
	}
	if got := c.rowsVisited.Value(); got != 3*345 {
		t.Errorf("rows visited = %v, want %v", got, 3*345)
	}
	if got := c.TraceCount(); got != 3 {
		t.Errorf("TraceCount = %d, want 3", got)
	}
	recent := c.Recent(1)
	if len(recent) != 1 || !recent[0].TimedOut {
		t.Errorf("Recent(1) = %+v, want the timed-out trace", recent)
	}
	if recent[0].Time.IsZero() {
		t.Error("trace time not stamped")
	}
}

func TestCollectorSkipsQErrorForPartialRuns(t *testing.T) {
	c := NewCollector(4)
	limited := sampleTrace()
	limited.LimitHit = true
	c.Record(limited)
	if got := c.qerror.Count("SS"); got != 0 {
		t.Errorf("qerror count = %d, want 0 for limit-hit run", got)
	}
	if got := c.queries.Value("SS", "ok"); got != 1 {
		t.Errorf(`queries{SS,ok} = %v, want 1 (limit-hit is still ok)`, got)
	}
}

func TestCollectorTruncatesQuery(t *testing.T) {
	c := NewCollector(2)
	tr := sampleTrace()
	tr.Query = strings.Repeat("x", MaxQueryLen+100)
	c.Record(tr)
	if got := len(c.Recent(1)[0].Query); got != MaxQueryLen {
		t.Errorf("stored query length = %d, want %d", got, MaxQueryLen)
	}
}

func TestCollectorUnknownPlanner(t *testing.T) {
	c := NewCollector(2)
	tr := sampleTrace()
	tr.Planner = ""
	c.Record(tr)
	if got := c.queries.Value("unknown", "ok"); got != 1 {
		t.Errorf(`queries{unknown,ok} = %v, want 1`, got)
	}
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.Record(sampleTrace()) // must not panic
	c.Register(NewFunc("g", "G.", Gauge, "", Value(func() float64 { return 1 })))
	if c.Recent(5) != nil {
		t.Error("nil Recent should return nil")
	}
	if c.TraceCount() != 0 || c.RingSize() != 0 {
		t.Error("nil counts should be zero")
	}
	if err := c.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
}

// TestWritePrometheusInventory pins the collector's own families and a
// registered one, rendered together.
func TestWritePrometheusInventory(t *testing.T) {
	c := NewCollector(4)
	c.Register(NewFunc("rdfshapes_dataset_triples", "Triples.", Gauge, "", Value(func() float64 { return 99 })))
	c.Record(sampleTrace())
	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"rdfshapes_dataset_triples 99",
		MetricTracesWritten + " 1",
		`rdfshapes_queries_total{planner="SS",status="ok"} 1`,
		`rdfshapes_query_duration_seconds_bucket{planner="SS",le="0.0025"} 1`,
		`rdfshapes_query_duration_seconds_bucket{planner="SS",le="+Inf"} 1`,
		`rdfshapes_plan_qerror_bucket{planner="SS",le="5"} 1`,
		`rdfshapes_plan_qerror_count{planner="SS"} 1`,
		"rdfshapes_index_rows_visited_total 345",
		"rdfshapes_intermediate_results_total 300",
		"rdfshapes_result_rows_total 10",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// TestCollectorConcurrent hammers Record and WritePrometheus together;
// run with -race.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Record(sampleTrace())
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := c.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := c.TraceCount(); got != 400 {
		t.Errorf("TraceCount = %d, want 400", got)
	}
	if got := c.joinAlgo.Value("nl"); got != 400 {
		t.Errorf(`join_algo{nl} = %v, want 400`, got)
	}
}

// TestAuxiliaryHistogram covers a registered histogram family: it
// renders with the collector's own families, and a second registration
// under the same name replaces the first.
func TestAuxiliaryHistogram(t *testing.T) {
	c := NewCollector(4)
	h := NewHistogramVec("rdfshapes_checkpoint_duration_seconds", "Checkpoint wall time in seconds.",
		[]float64{0.1, 0.25, 1})
	c.Register(NewHistogramVec(h.Name(), "Replaced.", nil), h)
	h.Observe(0.2)
	h.Observe(7)
	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP rdfshapes_checkpoint_duration_seconds Checkpoint wall time in seconds.",
		"# TYPE rdfshapes_checkpoint_duration_seconds histogram",
		`rdfshapes_checkpoint_duration_seconds_bucket{le="0.25"} 1`,
		`rdfshapes_checkpoint_duration_seconds_bucket{le="+Inf"} 2`,
		"rdfshapes_checkpoint_duration_seconds_count 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Replaced.") {
		t.Error("the replaced family still renders")
	}
}

// TestWritePrometheusNameOrder: families render in name order, whatever
// the order they were registered in.
func TestWritePrometheusNameOrder(t *testing.T) {
	c := NewCollector(4)
	c.Register(NewFunc("rdfshapes_zzz", "Z.", Gauge, "", Value(func() float64 { return 1 })),
		NewFunc("rdfshapes_aaa_total", "A.", Counter, "", Value(func() float64 { return 2 })))
	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			names = append(names, f[2])
		}
	}
	if !sort.StringsAreSorted(names) || len(names) != 9 {
		t.Errorf("families rendered as %v, want 9 in name order", names)
	}
}

// TestCollectorCountsJoinsByAlgo: Record counts join steps by the
// algorithm each trace step ran; a merge prefix's first step is its
// leading scan, not a join. The family appears with the first join.
func TestCollectorCountsJoinsByAlgo(t *testing.T) {
	c := NewCollector(4)
	single := sampleTrace()
	single.Patterns = single.Patterns[:1]
	c.Record(single)
	var b strings.Builder
	c.WritePrometheus(&b)
	if strings.Contains(b.String(), MetricJoinAlgo) {
		t.Errorf("join family served before any join:\n%s", b.String())
	}
	merged := sampleTrace()
	merged.Patterns = append(merged.Patterns, PatternTrace{Pattern: "?s <q> ?x"})
	merged.Patterns[0].Algo, merged.Patterns[1].Algo, merged.Patterns[2].Algo = "merge", "merge", "nl"
	c.Record(merged)
	c.Record(sampleTrace()) // one nested-loop join
	if got := c.joinAlgo.Value("merge"); got != 1 {
		t.Errorf(`join_algo{merge} = %v, want 1`, got)
	}
	if got := c.joinAlgo.Value("nl"); got != 2 {
		t.Errorf(`join_algo{nl} = %v, want 2`, got)
	}
	b.Reset()
	c.WritePrometheus(&b)
	if !strings.Contains(b.String(), MetricJoinAlgo+`{algo="nl"} 2`+"\n") {
		t.Errorf("join family not served:\n%s", b.String())
	}
}

// TestRegisterGaugeVec checks a labeled scrape-time gauge: one series
// per map key, sorted, label values escaped, nil-safe registration.
func TestRegisterGaugeVec(t *testing.T) {
	c := NewCollector(4)
	c.Register(NewFunc("rdfshapes_template_qerror", "Per-template q-error.", Gauge, "template",
		func() map[string]float64 {
			return map[string]float64{
				`?v0 a <http://ex/T> .`: 2.5,
				"with \"quote\"":        1,
			}
		}))
	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE rdfshapes_template_qerror gauge",
		`rdfshapes_template_qerror{template="?v0 a <http://ex/T> ."} 2.5`,
		`rdfshapes_template_qerror{template="with \"quote\""} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "?v0 a") > strings.Index(out, "with") {
		t.Error("gauge-vec series not sorted by label value")
	}

	var nilC *Collector
	nilC.Register(NewFunc("x", "X.", Gauge, "l", func() map[string]float64 { return nil }))
}
