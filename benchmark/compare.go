package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
)

// churnWriteMetrics are churn's write-stream latencies. BENCHMARK.json's
// end-to-end list holds only metrics every workload has, so these live
// in churn's diagnostics; -compare still gates them, at this bound.
var churnWriteMetrics = []metricDef{
	{Name: "update_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "update_p95_ms", Unit: "ms", Better: "lower", Bound: 0.10},
}

// side is one results file's runs of one workload, tracing off.
type side []*runResult

func (s side) values(name string) []float64 {
	var xs []float64
	for _, r := range s {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		} else if m, ok := r.Diagnostics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// spread is the distance between the quartiles of a side's repeat runs
// as a share of their median; unknown (0, false) with a single run.
func spread(xs []float64) (float64, bool) {
	if len(xs) < 2 {
		return 0, false
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs), true
}

func (s side) failedShare() float64 {
	var failed, attempted int
	for _, r := range s {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// verdict applies one metric's bound to a base and a candidate side.
func verdict(def metricDef, base, cand []float64) (b, c, ratio float64, v string) {
	b, c = median(base), median(cand)
	ratio = c / b
	worse := ratio - 1
	if def.Better == "higher" {
		worse = 1 - ratio
	}
	for _, xs := range [][]float64{base, cand} {
		if s, ok := spread(xs); ok && s > def.Bound {
			return b, c, ratio, "unresolved"
		}
	}
	if worse > def.Bound {
		return b, c, ratio, "regressed"
	}
	return b, c, ratio, "ok"
}

// compareFiles prints one row per workload and metric — base,
// candidate, ratio, verdict — and fails on any regression or any rise
// in the share of failed operations.
func compareFiles(c *config, basePath, candPath string) error {
	var files [2]resultsFile
	for i, p := range []string{basePath, candPath} {
		if err := readJSON(p, &files[i]); err != nil {
			return err
		}
	}
	sideOf := func(f resultsFile, workload string) side {
		var s side
		for _, r := range f.Runs {
			if r.Workload == workload && !r.Trace {
				s = append(s, r)
			}
		}
		return s
	}
	fmt.Printf("%-14s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "base", "candidate", "ratio", "bound", "verdict")
	bad := 0
	for _, w := range c.bench.Workloads {
		base, cand := sideOf(files[0], w.Name), sideOf(files[1], w.Name)
		if len(base) == 0 || len(cand) == 0 {
			fmt.Printf("%-14s missing from one of the files\n", w.Name)
			bad++
			continue
		}
		defs := c.bench.EndToEnd
		if len(base.values(churnWriteMetrics[0].Name)) > 0 {
			defs = append(append([]metricDef(nil), defs...), churnWriteMetrics...)
		}
		for _, def := range defs {
			b, cv, ratio, v := verdict(def, base.values(def.Name), cand.values(def.Name))
			fmt.Printf("%-14s %-16s %12.5g %12.5g %8.4f %6.2f  %s\n", w.Name, def.Name, b, cv, ratio, def.Bound, v)
			if v == "regressed" || math.IsNaN(ratio) {
				bad++
			}
		}
		if fb, fc := base.failedShare(), cand.failedShare(); fc > fb {
			fmt.Printf("%-14s %-16s %12.5g %12.5g %8s %6s  regressed\n", w.Name, "failed_share", fb, fc, "", "")
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressed or missing rows", bad)
	}
	return nil
}

// runAA runs the whole benchmark twice on this tree with the same seed
// and compares the two: the rig's own noise against its own bounds.
func runAA(ctx context.Context, c *config, inv invocation) error {
	var paths [2]string
	inv.workload, inv.traced, inv.smoke = "", false, false
	for i := range paths {
		paths[i] = filepath.Join(c.outDir(), fmt.Sprintf("aa-%d.json", i+1))
		inv.out = paths[i]
		if _, err := runWorkloads(ctx, c, inv); err != nil {
			return err
		}
	}
	return compareFiles(c, paths[0], paths[1])
}
