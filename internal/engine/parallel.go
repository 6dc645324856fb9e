// Morsel-parallel BGP execution: the driver (first) pattern's index
// range is split into contiguous chunks, K workers each run the full
// join pipeline over the chunks they draw, and per-worker outputs are
// concatenated in chunk order. Three contracts hold regardless of K:
//
//   - Bit-identical merge: rows, their order, Ops, and the per-step
//     intermediate counts in ExecReport are exactly those of the serial
//     executor. Chunks partition the driver scan without overlap, every
//     worker applies the same deterministic pipeline, and the merge is a
//     stable in-order concatenation — no hash partitioning, no
//     nondeterministic interleave. Tests diff parallel against serial
//     output byte for byte over all workloads.
//
//   - Work-stealing cadence: the range is over-partitioned by
//     morselFactor relative to the worker count and chunks are drawn
//     from a shared counter, so a worker that got cheap chunks pulls
//     more instead of idling behind a skewed one.
//
//   - Governor transparency: budgets (ops, rows, intermediates) and
//     cancellation are checked inside every worker against shared
//     atomics; a trip anywhere stops all workers and the partial-result
//     flags (TimedOut/LimitHit/Truncated) surface exactly as in the
//     serial path.
//
// See docs/PERFORMANCE.md for measurements and tuning.

package engine

import (
	"sync"
	"sync/atomic"

	"rdfshapes/internal/store"
)

// ChunkedSource is a Source whose matches of a pattern can be split into
// contiguous chunks for morsel-parallel execution. Running the returned
// closures in slice order must enumerate exactly the triples
// Scan(pat, fn) would, in the same order; n is an upper bound on the
// number of chunks. store.Store, store.Fragment, and live.Snapshot all
// implement it.
type ChunkedSource interface {
	Source
	ScanChunks(pat store.IDTriple, n int) []func(fn func(store.IDTriple) bool)
}

// morselFactor over-partitions the driver range relative to the worker
// count, so a worker that drew cheap chunks pulls remaining work instead
// of idling behind a skewed one.
const morselFactor = 8

// activeWorkers counts parallel BGP worker goroutines currently
// executing, across all Runs in the process.
var activeWorkers atomic.Int64

// ActiveParallelWorkers returns the number of parallel BGP worker
// goroutines currently executing across all Runs in the process — the
// worker-utilization gauge exported at /metrics.
func ActiveParallelWorkers() int64 { return activeWorkers.Load() }

// shared is the cross-worker governor state of one parallel Run: the
// stop flag every worker polls at its cancellation cadence, the global
// budget counters (each maintained only when the corresponding Options
// budget is set), and the first context error observed.
type shared struct {
	stop  atomic.Bool
	ops   atomic.Int64 // under MaxOps
	inter atomic.Int64 // under MaxIntermediate
	rows  atomic.Int64 // under MaxRows

	mu     sync.Mutex
	ctxErr error // first context error; aborts the whole Run
}

// fail records the first context error and stops all workers.
func (sh *shared) fail(err error) {
	sh.mu.Lock()
	if sh.ctxErr == nil {
		sh.ctxErr = err
	}
	sh.mu.Unlock()
	sh.stop.Store(true)
}

// execFlags snapshots one chunk's termination flags for the merge.
type execFlags struct {
	budgetHit bool
	limitHit  bool
	truncated bool
}

// runParallel executes the compiled BGP held by the template executor
// with opts.Parallelism workers over morsels of the driver (first)
// pattern's index range. Each morsel runs with worker-local row, Rows,
// and Intermediate state; morsel results are merged into res in range
// order, making row order, Count, Ops, and per-pattern Intermediate
// identical to a serial run (budget truncations aside, which may keep a
// different — but equally sized — subset of rows). The returned error
// is the context error that aborted the run, if any.
func runParallel(st ChunkedSource, tmpl *executor, res *Result) error {
	opts := tmpl.opts
	cp0 := tmpl.compiled[0]
	pat := store.IDTriple{S: cp0.constS, P: cp0.constP, O: cp0.constO}
	chunks := st.ScanChunks(pat, opts.Parallelism*morselFactor)
	if len(chunks) == 0 {
		return nil
	}
	workers := opts.Parallelism
	if workers > len(chunks) {
		workers = len(chunks)
	}

	npat := len(res.Intermediate)
	results := make([]*Result, len(chunks))
	flags := make([]execFlags, len(chunks))
	sh := &shared{}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		activeWorkers.Add(1)
		go func() {
			defer wg.Done()
			defer activeWorkers.Add(-1)
			e := &executor{
				st:           tmpl.st,
				compiled:     tmpl.compiled,
				groups:       tmpl.groups,
				groupEmpty:   tmpl.groupEmpty,
				groupFilters: tmpl.groupFilters,
				filters:      tmpl.filters,
				row:          make([]store.ID, len(tmpl.row)),
				opts:         opts,
				ctx:          tmpl.ctx,
				sh:           sh,
			}
			e.prepare()
			for !sh.stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(chunks) {
					return
				}
				r := &Result{Intermediate: make([]int64, npat)}
				e.res = r
				e.stopped = false
				e.chunk = chunks[i]
				e.level(0)
				// Distinct indices per worker; wg.Wait orders these
				// writes before the merge reads.
				results[i] = r
				flags[i] = execFlags{
					budgetHit: e.budgetHit,
					limitHit:  e.limitHit,
					truncated: e.truncated,
				}
			}
		}()
	}
	wg.Wait()

	for i, r := range results {
		if r == nil {
			continue // never started: a budget or cancellation stopped the run
		}
		res.Count += r.Count
		res.Ops += r.Ops
		for j, v := range r.Intermediate {
			res.Intermediate[j] += v
		}
		if !opts.CountOnly {
			res.Rows = append(res.Rows, r.Rows...)
		}
		f := flags[i]
		res.TimedOut = res.TimedOut || f.budgetHit
		res.LimitHit = res.LimitHit || f.limitHit
		res.Truncated = res.Truncated || f.truncated
	}
	return sh.ctxErr
}
