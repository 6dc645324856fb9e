// Benchmarks regenerating every table and figure of the paper (see
// DESIGN.md's per-experiment index) plus the ablations it calls out and
// micro-benchmarks of the hot paths. The rendered tables themselves come
// from `go run ./cmd/repro`; these benchmarks measure the experiments
// and expose their headline numbers as custom metrics.
package rdfshapes_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"rdfshapes"

	"rdfshapes/internal/annotator"
	"rdfshapes/internal/baselines/charsets"
	"rdfshapes/internal/baselines/sumrdf"
	"rdfshapes/internal/bench"
	"rdfshapes/internal/cardinality"
	"rdfshapes/internal/core"
	"rdfshapes/internal/datagen/lubm"
	"rdfshapes/internal/engine"
	"rdfshapes/internal/gstats"
	"rdfshapes/internal/live"
	"rdfshapes/internal/sparql"
	"rdfshapes/internal/store"
	"rdfshapes/internal/workloads"
)

// benchCfg keeps experiment benchmarks affordable: 3 shuffled runs
// instead of the paper's 10 (cmd/repro uses the full 10).
var benchCfg = bench.RunConfig{Runs: 3, Seed: 1}

var datasets struct {
	once               sync.Once
	lubm, watdiv, yago *bench.Dataset
	err                error
}

func loadDatasets(b *testing.B) (*bench.Dataset, *bench.Dataset, *bench.Dataset) {
	b.Helper()
	datasets.once.Do(func() {
		if datasets.lubm, datasets.err = bench.LUBMDataset(bench.Small); datasets.err != nil {
			return
		}
		if datasets.watdiv, datasets.err = bench.WatDivDataset(bench.Small); datasets.err != nil {
			return
		}
		datasets.yago, datasets.err = bench.YAGODataset(bench.Small)
	})
	if datasets.err != nil {
		b.Fatal(datasets.err)
	}
	return datasets.lubm, datasets.watdiv, datasets.yago
}

// BenchmarkTable2 regenerates Table 2a/2b: the example query planned with
// global and shape statistics, including true join cardinalities.
func BenchmarkTable2(b *testing.B) {
	d, _, _ := loadDatasets(b)
	b.ResetTimer()
	var est, truth float64
	for i := 0; i < b.N; i++ {
		ts, err := bench.Table2Experiment(d, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		est, truth = ts[1].EstTotal, ts[1].TrueTotal
	}
	b.ReportMetric(est, "ss-est-cost")
	b.ReportMetric(truth, "ss-true-cost")
}

// BenchmarkTable3 regenerates Table 3: dataset characteristics.
func BenchmarkTable3(b *testing.B) {
	l, w, y := loadDatasets(b)
	b.ResetTimer()
	var triples int64
	for i := 0; i < b.N; i++ {
		rows := bench.Table3(l, w, y)
		for _, r := range rows {
			triples += r.Triples
		}
	}
	b.ReportMetric(float64(triples)/float64(b.N), "triples-total")
}

func runtimeBenchmark(b *testing.B, d *bench.Dataset) {
	b.Helper()
	var wins bench.PlanWinners
	for i := 0; i < b.N; i++ {
		rs, err := bench.RuntimeExperiment(d, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		wins = bench.Winners(rs)
	}
	b.ReportMetric(float64(wins.Wins["SS"]), "ss-wins")
	b.ReportMetric(wins.SSOverhead, "ss-overhead-x")
	b.ReportMetric(wins.GSOverhead, "gs-overhead-x")
}

// BenchmarkFigure4a regenerates Figure 4a: LUBM query runtimes across the
// six approaches under shuffled inputs.
func BenchmarkFigure4a(b *testing.B) {
	d, _, _ := loadDatasets(b)
	b.ResetTimer()
	runtimeBenchmark(b, d)
}

// BenchmarkFigure4b regenerates Figure 4b: YAGO-4 query runtimes.
func BenchmarkFigure4b(b *testing.B) {
	_, _, d := loadDatasets(b)
	b.ResetTimer()
	runtimeBenchmark(b, d)
}

func qerrorBenchmark(b *testing.B, d *bench.Dataset) {
	b.Helper()
	var buckets map[string][3]int
	for i := 0; i < b.N; i++ {
		qs, err := bench.QErrorExperiment(d, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		buckets = bench.QErrorBuckets(qs)
	}
	ss := buckets["SS"]
	b.ReportMetric(float64(ss[0]), "ss-qerr-lt15")
	b.ReportMetric(float64(ss[2]), "ss-qerr-ge250")
}

// BenchmarkFigure4c regenerates Figure 4c: LUBM q-errors.
func BenchmarkFigure4c(b *testing.B) {
	d, _, _ := loadDatasets(b)
	b.ResetTimer()
	qerrorBenchmark(b, d)
}

// BenchmarkFigure4d regenerates Figure 4d: YAGO-4 q-errors.
func BenchmarkFigure4d(b *testing.B) {
	_, _, d := loadDatasets(b)
	b.ResetTimer()
	qerrorBenchmark(b, d)
}

func costBenchmark(b *testing.B, d *bench.Dataset) {
	b.Helper()
	var ratioSum float64
	var n int
	for i := 0; i < b.N; i++ {
		cs, err := bench.CostExperiment(d, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		ratioSum, n = 0, 0
		for _, c := range cs {
			if c.Approach == "SS" && c.TrueCost > 0 {
				ratioSum += cardinality.QError(c.EstimatedCost, c.TrueCost)
				n++
			}
		}
	}
	if n > 0 {
		b.ReportMetric(ratioSum/float64(n), "ss-cost-qerr")
	}
}

// BenchmarkFigure4e regenerates Figure 4e: LUBM estimated vs true plan
// cost for SS and GS.
func BenchmarkFigure4e(b *testing.B) {
	d, _, _ := loadDatasets(b)
	b.ResetTimer()
	costBenchmark(b, d)
}

// BenchmarkFigure4f regenerates Figure 4f: YAGO-4 estimated vs true cost.
func BenchmarkFigure4f(b *testing.B) {
	_, _, d := loadDatasets(b)
	b.ResetTimer()
	costBenchmark(b, d)
}

// BenchmarkAppendixWatDiv regenerates the extended version's appendix:
// WatDiv runtimes and q-errors.
func BenchmarkAppendixWatDiv(b *testing.B) {
	_, d, _ := loadDatasets(b)
	b.ResetTimer()
	runtimeBenchmark(b, d)
}

// BenchmarkPreprocessing regenerates P1: the relative preprocessing cost
// of annotation vs characteristic sets vs summarization.
func BenchmarkPreprocessing(b *testing.B) {
	d, _, _ := loadDatasets(b)
	st := d.Store
	g := d.Global
	b.ResetTimer()
	b.Run("Annotate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shapes := lubm.Shapes()
			if err := annotator.Annotate(shapes, st); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CharacteristicSets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			charsets.Build(st, g)
		}
	})
	b.Run("SumRDFSummary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sumrdf.Build(st, g, bench.SummaryTargetSize); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GlobalStats", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gstats.Compute(st)
		}
	})
}

// BenchmarkAblationScopedDistinct (AB1) compares the paper's DSC choice
// (node shape count) against per-property distinct subject counts, on
// WatDiv whose optional properties make the two diverge.
func BenchmarkAblationScopedDistinct(b *testing.B) {
	_, d, _ := loadDatasets(b)
	for _, scoped := range []bool{false, true} {
		name := "nodeCount"
		if scoped {
			name = "scopedDSC"
		}
		b.Run(name, func(b *testing.B) {
			ss := cardinality.NewShapeEstimator(d.Shapes, d.Global)
			ss.UseScopedDSC = scoped
			var meanQ float64
			for i := 0; i < b.N; i++ {
				meanQ = 0
				n := 0
				for _, wq := range d.Queries {
					q, err := wq.Parse()
					if err != nil {
						b.Fatal(err)
					}
					plan := core.Optimize(q, ss)
					er, err := engine.Run(d.Store, plan.Order(), engine.Options{CountOnly: true, MaxOps: bench.DefaultMaxOps})
					if err != nil {
						b.Fatal(err)
					}
					est, _ := cardinality.SequenceEstimate(q, plan.Order(), ss)
					meanQ += cardinality.QError(est, float64(er.Count))
					n++
				}
				meanQ /= float64(n)
			}
			b.ReportMetric(meanQ, "mean-qerror")
		})
	}
}

// BenchmarkAblationSummarySize (AB2) sweeps the SumRDF summary target
// size on the heterogeneous YAGO analog, whose many class-set signatures
// make the bucket budget bind: accuracy and estimation cost both grow
// with the summary.
func BenchmarkAblationSummarySize(b *testing.B) {
	_, _, d := loadDatasets(b)
	for _, size := range []int{4, 16, 64, 1024} {
		b.Run(sizeName(size), func(b *testing.B) {
			var meanQ float64
			for i := 0; i < b.N; i++ {
				s, err := sumrdf.Build(d.Store, d.Global, size)
				if err != nil {
					b.Fatal(err)
				}
				meanQ = 0
				n := 0
				for _, wq := range d.Queries {
					q, err := wq.Parse()
					if err != nil {
						b.Fatal(err)
					}
					pl, err := d.Planner("SS")
					if err != nil {
						b.Fatal(err)
					}
					er, err := engine.Run(d.Store, pl.Plan(q).Order(), engine.Options{CountOnly: true, MaxOps: bench.DefaultMaxOps})
					if err != nil {
						b.Fatal(err)
					}
					meanQ += cardinality.QError(s.EstimateBGP(q), float64(er.Count))
					n++
				}
				meanQ /= float64(n)
			}
			b.ReportMetric(meanQ, "mean-qerror")
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1024:
		return string(rune('0'+n/1024)) + "k"
	default:
		if n >= 100 {
			return string(rune('0'+n/100)) + string(rune('0'+(n/10)%10)) + string(rune('0'+n%10))
		}
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
}

// BenchmarkAblationGreedyVsExact (AB3) measures the greedy Algorithm 1
// against the cost-optimal exhaustive order under the same estimates.
func BenchmarkAblationGreedyVsExact(b *testing.B) {
	d, _, _ := loadDatasets(b)
	ss := cardinality.NewShapeEstimator(d.Shapes, d.Global)
	var gap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gap = 0
		n := 0
		for _, wq := range d.Queries {
			q, err := wq.Parse()
			if err != nil {
				b.Fatal(err)
			}
			if len(q.Patterns) > core.MaxExhaustivePatterns {
				continue
			}
			greedy := core.Optimize(q, ss)
			exact := core.OptimizeExhaustive(q, ss)
			if exact.Cost > 0 {
				gap += greedy.Cost / exact.Cost
				n++
			}
		}
		gap /= float64(n)
	}
	b.ReportMetric(gap, "greedy/optimal-cost")
}

// ---- micro-benchmarks of the substrate hot paths ----

// BenchmarkStoreScan measures indexed range scans.
func BenchmarkStoreScan(b *testing.B) {
	d, _, _ := loadDatasets(b)
	st := d.Store
	pred := st.TypeID()
	if pred == 0 {
		b.Fatal("rdf:type not in dictionary")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		st.Scan(store.IDTriple{P: pred}, func(store.IDTriple) bool {
			n++
			return true
		})
	}
}

// BenchmarkStoreProbe measures one nested-loop index probe — resolve a
// pattern with two or three bound positions and walk its (short) range —
// per bound shape, over the benchmark rig's dataset (LUBM scale 5, seed
// 7). Keys are drawn once from triples of the store, so every probe hits.
func BenchmarkStoreProbe(b *testing.B) {
	st := store.Load(lubm.Generate(lubm.Config{Universities: 5, Seed: 7}))
	all := st.Range(store.IDTriple{})
	rng := rand.New(rand.NewSource(7))
	keys := make([]store.IDTriple, 1<<12)
	for i := range keys {
		keys[i] = all[rng.Intn(len(all))]
	}
	for _, c := range []struct {
		name    string
		s, p, o bool
	}{
		{"s_p", true, true, false},
		{"p_o", false, true, true},
		{"s_o", true, false, true},
		{"s_p_o", true, true, true},
	} {
		pats := make([]store.IDTriple, len(keys))
		for i, k := range keys {
			if c.s {
				pats[i].S = k.S
			}
			if c.p {
				pats[i].P = k.P
			}
			if c.o {
				pats[i].O = k.O
			}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			count := func(store.IDTriple) bool { rows++; return true }
			for i := 0; i < b.N; i++ {
				st.Scan(pats[i&(len(pats)-1)], count)
			}
			if rows < b.N {
				b.Fatalf("%d probes matched %d rows", b.N, rows)
			}
		})
	}
}

// BenchmarkEngineStarQuery measures a 5-pattern star execution, counting
// only and with its rows kept.
func BenchmarkEngineStarQuery(b *testing.B) {
	d, _, _ := loadDatasets(b)
	wq, err := d.QueryByName("S2")
	if err != nil {
		b.Fatal(err)
	}
	q, err := wq.Parse()
	if err != nil {
		b.Fatal(err)
	}
	pl, err := d.Planner("SS")
	if err != nil {
		b.Fatal(err)
	}
	order := pl.Plan(q).Order()
	for _, c := range []struct {
		name string
		opts engine.Options
	}{
		{"count", engine.Options{CountOnly: true}},
		{"rows", engine.Options{}}, // plus keeping every solution as a result row
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(d.Store, order, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineObserverOverhead compares engine.Run with the observer
// hook disabled (the default) and enabled. The disabled case must match
// the pre-observability engine: the hook costs two nil checks and no
// clock reads when Options.Observer is nil.
func BenchmarkEngineObserverOverhead(b *testing.B) {
	d, _, _ := loadDatasets(b)
	wq, err := d.QueryByName("S2")
	if err != nil {
		b.Fatal(err)
	}
	q, err := wq.Parse()
	if err != nil {
		b.Fatal(err)
	}
	pl, err := d.Planner("SS")
	if err != nil {
		b.Fatal(err)
	}
	order := pl.Plan(q).Order()
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(d.Store, order, engine.Options{CountOnly: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		var last engine.ExecReport
		obs := func(r engine.ExecReport) { last = r }
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(d.Store, order, engine.Options{CountOnly: true, Observer: obs}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(last.Ops), "ops-reported")
	})
}

// BenchmarkOptimize measures Algorithm 1 on the 9-pattern example query.
func BenchmarkOptimize(b *testing.B) {
	d, _, _ := loadDatasets(b)
	wq, err := d.QueryByName("C0")
	if err != nil {
		b.Fatal(err)
	}
	q, err := wq.Parse()
	if err != nil {
		b.Fatal(err)
	}
	ss := cardinality.NewShapeEstimator(d.Shapes, d.Global)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Optimize(q, ss)
	}
}

// BenchmarkParse measures the SPARQL parser.
func BenchmarkParse(b *testing.B) {
	d, _, _ := loadDatasets(b)
	wq, err := d.QueryByName("C0")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Parse(wq.Text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanningTime regenerates P2: pure optimization latency per
// approach (the paper's "planning is always < 20 ms" claim).
func BenchmarkPlanningTime(b *testing.B) {
	d, _, _ := loadDatasets(b)
	b.ResetTimer()
	var maxUs float64
	for i := 0; i < b.N; i++ {
		rs, err := bench.PlanningTimeExperiment(d, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		maxUs = 0
		for _, r := range rs {
			if r.MaxUs > maxUs {
				maxUs = r.MaxUs
			}
		}
	}
	b.ReportMetric(maxUs, "max-plan-µs")
}

// BenchmarkAnnotatorScaling (AB4) verifies the Shapes Annotator scales
// linearly with data size: one pass over the subject-grouped index.
func BenchmarkAnnotatorScaling(b *testing.B) {
	for _, unis := range []int{1, 2, 4} {
		g := lubm.Generate(lubm.Config{Universities: unis, Seed: 7})
		st := store.Load(g)
		b.Run(fmt.Sprintf("universities-%d", unis), func(b *testing.B) {
			b.ReportMetric(float64(st.Len()), "triples")
			for i := 0; i < b.N; i++ {
				shapes := lubm.Shapes()
				if err := annotator.Annotate(shapes, st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationObjectClassCap (AB5) measures the beyond-paper DOC
// refinement: capping a scoped pattern's distinct object count at the
// object variable's class size when the BGP types the object.
func BenchmarkAblationObjectClassCap(b *testing.B) {
	d, _, _ := loadDatasets(b)
	for _, capped := range []bool{false, true} {
		name := "paper"
		if capped {
			name = "objectClassCap"
		}
		b.Run(name, func(b *testing.B) {
			ss := cardinality.NewShapeEstimator(d.Shapes, d.Global)
			ss.UseObjectClassCap = capped
			var meanQ float64
			for i := 0; i < b.N; i++ {
				meanQ = 0
				n := 0
				for _, wq := range d.Queries {
					q, err := wq.Parse()
					if err != nil {
						b.Fatal(err)
					}
					plan := core.Optimize(q, ss)
					er, err := engine.Run(d.Store, plan.Order(), engine.Options{CountOnly: true, MaxOps: bench.DefaultMaxOps})
					if err != nil {
						b.Fatal(err)
					}
					est, _ := cardinality.SequenceEstimate(q, plan.Order(), ss)
					meanQ += cardinality.QError(est, float64(er.Count))
					n++
				}
				meanQ /= float64(n)
			}
			b.ReportMetric(meanQ, "mean-qerror")
		})
	}
}

// BenchmarkStoreLoad measures bulk loading + index construction (the
// secondary orderings sort in parallel).
func BenchmarkStoreLoad(b *testing.B) {
	g := lubm.Generate(lubm.Config{Universities: 1, Seed: 7})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := store.Load(g)
		if st.Len() == 0 {
			b.Fatal("empty store")
		}
	}
}

// BenchmarkExtendedOperators measures the operators beyond the paper's
// conjunctive BGPs — FILTER, OPTIONAL, UNION, property paths, ORDER BY —
// end to end through the public facade.
func BenchmarkExtendedOperators(b *testing.B) {
	g := lubm.Generate(lubm.Config{Universities: 1, Seed: 7})
	db, err := rdfshapes.Load(g, rdfshapes.WithShapesGraph(lubm.Shapes()))
	if err != nil {
		b.Fatal(err)
	}
	for _, wq := range workloads.LUBMExtended() {
		b.Run(wq.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(wq.Text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLiveScanEmptyOverlay pins the live layer's read overhead: with
// an empty overlay a snapshot scan must stay within a small constant
// factor of the frozen store it wraps (it is one pointer-pair check away
// from the same code path).
func BenchmarkLiveScanEmptyOverlay(b *testing.B) {
	d, _, _ := loadDatasets(b)
	st := d.Store
	pred := st.TypeID()
	if pred == 0 {
		b.Fatal("rdf:type not in dictionary")
	}
	b.Run("frozen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			st.Scan(store.IDTriple{P: pred}, func(store.IDTriple) bool {
				n++
				return true
			})
		}
	})
	b.Run("live", func(b *testing.B) {
		snap := live.Wrap(st).Snapshot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			snap.Scan(store.IDTriple{P: pred}, func(store.IDTriple) bool {
				n++
				return true
			})
		}
	})
}

// BenchmarkLiveUpdateThroughput measures committed SPARQL UPDATE batches
// through the facade — parse, overlay commit, incremental statistics
// maintenance, planner refresh — reporting sustained triples per second.
func BenchmarkLiveUpdateThroughput(b *testing.B) {
	const batch = 100
	db, err := rdfshapes.Load(lubm.Generate(lubm.Config{Universities: 1, Seed: 7}),
		rdfshapes.WithShapesGraph(lubm.Shapes()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		sb.WriteString("INSERT DATA {\n")
		for j := 0; j < batch; j++ {
			fmt.Fprintf(&sb, "<http://live/s%d-%d> <http://live/p> <http://live/o%d> .\n", i, j, j)
		}
		sb.WriteString("}")
		if _, err := db.Update(sb.String()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*batch)/elapsed, "triples/s")
	}
}

// BenchmarkParallelBGP is the tentpole speedup pair: a join-heavy LUBM
// cross-product workload query (C2) executed serially and with 4
// morsel-parallel workers over the same SS plan. On an N-core machine
// K=4 approaches min(4, N)× speedup — near-linear up to the core count —
// because per-plan work (Ops, Intermediate) is identical and only the
// driver range is divided; on a single core it degrades gracefully
// to ~1×. The differential test in internal/integration proves the
// result sets and accounting are identical.
func BenchmarkParallelBGP(b *testing.B) {
	d, _, _ := loadDatasets(b)
	wq, err := d.QueryByName("C2")
	if err != nil {
		b.Fatal(err)
	}
	q, err := wq.Parse()
	if err != nil {
		b.Fatal(err)
	}
	pl, err := d.Planner("SS")
	if err != nil {
		b.Fatal(err)
	}
	order := pl.Plan(q).Order()
	var serialOps int64
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var ops int64
			for i := 0; i < b.N; i++ {
				er, err := engine.Run(d.Store, order,
					engine.Options{CountOnly: true, Filters: q.Filters, Parallelism: k})
				if err != nil {
					b.Fatal(err)
				}
				ops = er.Ops
			}
			if k == 1 {
				serialOps = ops
			} else if ops != serialOps && serialOps != 0 {
				b.Fatalf("parallel Ops %d != serial Ops %d", ops, serialOps)
			}
			b.ReportMetric(float64(ops), "ops/query")
		})
	}
}
