package bench

import (
	"fmt"
	"io"
	"strings"

	"rdfshapes/internal/core"
	"rdfshapes/internal/engine"
	"rdfshapes/internal/obsv"
)

// TraceExperiment executes every workload query once with the SS planner
// under an obsv.Collector — the serve-time observability layer driven by
// the bench harness — and returns the collector. Plans get the served
// path's join-algorithm selection, and each trace is assembled by
// core.Plan.Trace exactly as the HTTP server records live traffic, so
// cmd/repro prints the same accounting the /trace/recent endpoint
// exposes.
func TraceExperiment(d *Dataset, cfg RunConfig) (*obsv.Collector, error) {
	cfg = cfg.withDefaults()
	c := obsv.NewCollector(len(d.Queries))
	pl, err := d.Planner("SS")
	if err != nil {
		return nil, err
	}
	for _, wq := range d.Queries {
		q, err := wq.Parse()
		if err != nil {
			return nil, fmt.Errorf("bench: parsing %s/%s: %w", d.Name, wq.Name, err)
		}
		plan := pl.Plan(q)
		core.AnnotatePhysical(plan, core.LeadAvailableProbe, core.SourceLegRows(d.Store))
		var rep *engine.ExecReport
		_, err = engine.Run(d.Store, plan.Order(), engine.Options{
			CountOnly:  true,
			MaxOps:     cfg.MaxOps,
			MergeWidth: plan.MergeWidth,
			MergeVar:   plan.MergeVar,
			Observer:   func(r engine.ExecReport) { rep = &r },
		})
		c.Record(plan.Trace(wq.Name, rep, err))
	}
	return c, nil
}

// FormatTraces renders traces as the trace summary table cmd/repro
// prints after each workload: per query, the planner, result rows, the
// final estimated vs. actual intermediate cardinality with its q-error,
// index ops, wall time, and timeout/limit flags.
func FormatTraces(traces []obsv.QueryTrace) string {
	var b strings.Builder
	writeTraces(&b, traces)
	return b.String()
}

func writeTraces(w io.Writer, traces []obsv.QueryTrace) {
	fmt.Fprintf(w, "%-8s %-8s %10s %12s %12s %9s %10s %9s %s\n",
		"query", "planner", "rows", "est-card", "true-card", "q-error", "ops", "ms", "flags")
	// Recent returns newest first; present in execution order.
	for i := len(traces) - 1; i >= 0; i-- {
		t := traces[i]
		var flags []string
		if t.TimedOut {
			flags = append(flags, "timeout")
		}
		if t.LimitHit {
			flags = append(flags, "limit")
		}
		if t.Err != "" {
			flags = append(flags, "error")
		}
		est, act, qerr := "-", "-", "-"
		if n := len(t.Patterns); n > 0 {
			last := t.Patterns[n-1]
			est = fmt.Sprintf("%.0f", last.Estimated)
			act = fmt.Sprintf("%d", last.Actual)
			qerr = fmt.Sprintf("%.2f", t.QError)
		}
		fmt.Fprintf(w, "%-8s %-8s %10d %12s %12s %9s %10d %9.2f %s\n",
			t.Query, t.Planner, t.Rows, est, act, qerr, t.Ops,
			float64(t.WallNanos)/1e6, strings.Join(flags, ","))
	}
}
