package integration

import (
	"testing"

	"rdfshapes/internal/bench"
	"rdfshapes/internal/datagen/lubm"
	"rdfshapes/internal/engine"
	"rdfshapes/internal/store"
)

// TestProbeAllocsIndependentOfProbes pins the allocation-free
// nested-loop level: C1 — nine patterns, tens of thousands of index
// probes — counted over LUBM at scale 1 and scale 2 allocates the same
// number of objects give or take a constant, serial and with two
// workers, while the probes (Result.Ops) double. A closure per probe, or
// anything else per probe, would show as thousands.
func TestProbeAllocsIndependentOfProbes(t *testing.T) {
	d, err := bench.LUBMDataset(bench.Small)
	if err != nil {
		t.Fatal(err)
	}
	wq, err := d.QueryByName("C1")
	if err != nil {
		t.Fatal(err)
	}
	q, err := wq.Parse()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := d.Planner("SS")
	if err != nil {
		t.Fatal(err)
	}
	order := pl.Plan(q).Order() // patterns hold terms, so the order runs on any LUBM store
	stores := []*store.Store{d.Store, store.Load(lubm.Generate(lubm.Config{Universities: 2, Seed: 7}))}

	const slack = 32 // Result, levels, morsel bookkeeping: per run, not per probe
	for _, workers := range []int{1, 2} {
		opts := engine.Options{CountOnly: true, Filters: q.Filters, Parallelism: workers}
		var ops [2]int64
		var allocs [2]float64
		for i, st := range stores {
			res, err := engine.Run(st, order, opts)
			if err != nil {
				t.Fatal(err)
			}
			ops[i] = res.Ops
			allocs[i] = testing.AllocsPerRun(3, func() {
				if _, err := engine.Run(st, order, opts); err != nil {
					t.Error(err)
				}
			})
		}
		t.Logf("workers=%d: ops %d → %d, allocs %.0f → %.0f", workers, ops[0], ops[1], allocs[0], allocs[1])
		if ops[1] < ops[0]*3/2 || ops[0] < 10000 {
			t.Fatalf("workers=%d: ops %d → %d is not the growth in probes the test needs", workers, ops[0], ops[1])
		}
		if allocs[1] > allocs[0]+slack {
			t.Errorf("workers=%d: allocations grew with the probes: %.0f objects for %d ops, %.0f for %d",
				workers, allocs[0], ops[0], allocs[1], ops[1])
		}
	}
}
