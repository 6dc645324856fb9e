// Package engine executes basic graph patterns against a Source — a
// frozen store.Store or a live overlay snapshot — using left-deep index
// nested-loop joins in a caller-supplied triple pattern order.
//
// Because every pattern lookup is served by a sorted-index range scan,
// total work is essentially the sum of intermediate result sizes — the
// quantity join ordering minimizes — so plan quality translates directly
// into measured runtime, mirroring how ordering affects Jena TDB in the
// paper's evaluation.
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rdfshapes/internal/sparql"
	"rdfshapes/internal/store"
)

// ErrBudgetExceeded is reported via Result.TimedOut when an operation
// budget interrupts execution (the analog of the paper's 10-minute query
// timeout).
var ErrBudgetExceeded = errors.New("engine: operation budget exceeded")

// ErrCanceled aborts a Run whose Options.Ctx was canceled — typically a
// client that disconnected mid-query.
var ErrCanceled = errors.New("engine: query canceled")

// ErrDeadline aborts a Run whose Options.Ctx deadline passed.
var ErrDeadline = errors.New("engine: query deadline exceeded")

// ErrUnsortedRun aborts a Run whose OrderedSource handed the merge join
// a run that violates the lead-order sort contract. This is a defect in
// the source, not in the query: merge joins silently drop or duplicate
// rows on unsorted input, so the engine verifies order on every row it
// consumes and fails loudly instead.
var ErrUnsortedRun = errors.New("engine: OrderedSource returned an unsorted run")

// cancelCheckMask amortizes context checks: the context is consulted
// once every 1024 index rows visited, so a mis-planned join notices
// cancellation within microseconds while the no-context fast path pays
// only a nil check per row.
const cancelCheckMask = 1<<10 - 1

// CtxError maps a context error to the engine's typed errors:
// context.DeadlineExceeded becomes ErrDeadline, anything else (an
// explicit cancel) becomes ErrCanceled.
func CtxError(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrDeadline
	}
	return ErrCanceled
}

// Source is the read interface the engine executes against: a frozen
// store.Store or a live.Snapshot (frozen base plus delta overlay). Scan
// must enumerate matches of a pattern (store.Wildcard in a position
// matches anything) until fn returns false, and the view must be
// immutable for the duration of a Run.
type Source interface {
	Dict() *store.Dict
	Scan(pat store.IDTriple, fn func(store.IDTriple) bool)
}

// Options configures a BGP execution.
type Options struct {
	// Ctx, when non-nil, is checked for cancellation once every ~1024
	// index rows visited (cancelCheckMask): a canceled context aborts
	// the run with ErrCanceled, an expired deadline with ErrDeadline.
	// nil (the default) is the zero-cost path: no checks at all.
	Ctx context.Context
	// MaxOps caps the number of index rows visited; 0 means unlimited.
	// When exceeded, execution stops and Result.TimedOut is set.
	MaxOps int64
	// MaxIntermediate caps the total intermediate bindings produced
	// across all required join levels — the quantity a mis-ordered plan
	// explodes (paper Eq. 1–3); 0 means unlimited. When exceeded,
	// execution stops and the partial result is marked Truncated.
	MaxIntermediate int64
	// MaxRows caps result rows; 0 means unlimited. Unlike Limit, which
	// models the query's LIMIT clause, MaxRows is a server-side budget:
	// hitting it marks the result Truncated so callers can degrade
	// gracefully instead of silently under-reporting.
	MaxRows int64
	// Parallelism is the number of workers executing the BGP, using
	// morsel-style parallelism over the driver (first) pattern's index
	// range. Values <= 1 (including the zero value) select the serial
	// executor — the exact code path all earlier behavior pins. Parallel
	// execution requires the Source to implement ChunkedSource and is
	// skipped when Limit applies (early termination is inherently
	// serial); chunk results are merged deterministically in range
	// order, so row order, Count, Ops, and per-pattern Intermediate are
	// identical to a serial run. Budgets and cancellation keep their
	// serial semantics via shared counters (see parallel.go).
	Parallelism int
	// CountOnly suppresses row materialization; only counts are kept.
	CountOnly bool
	// Limit stops after this many result rows (0 = unlimited). Ignored
	// when CountOnly is set, since counts are exact by definition.
	Limit int
	// Filters are comparison constraints applied as soon as all their
	// variables are bound (filter push-down). Filtered-out bindings do
	// not count toward Intermediate sizes. Filters may only reference
	// variables of the required patterns.
	Filters []sparql.Filter
	// Optionals are OPTIONAL groups evaluated as left outer joins after
	// the required patterns: each solution is extended by every match of
	// the group, or kept once with the group's variables unbound (ID 0)
	// when the group has no match.
	Optionals [][]sparql.TriplePattern
	// OptionalFilters[g] are the filters scoped to Optionals[g]: they
	// evaluate inside the group, so a failing filter rejects that group
	// match (leaving the solution with the group unbound) rather than
	// rejecting the whole solution. Must be nil or len(Optionals).
	OptionalFilters [][]sparql.Filter
	// MergeWidth, when >= 2, asks the engine to execute the first
	// MergeWidth patterns as a multi-way sort-merge join on MergeVar
	// instead of nested-loop scans. The request is validated against the
	// Source's ordering capability (OrderedSource) and the patterns'
	// shape; if any check fails the engine silently falls back to the
	// nested-loop path and Result.MergeWidth reports 0. Merge execution
	// is serial — Parallelism applies only to nested-loop plans.
	MergeWidth int
	// MergeVar is the shared join variable the merge prefix is keyed on.
	MergeVar string
	// Observer, when non-nil, receives an ExecReport after the run
	// completes (the observability hook of internal/obsv). A nil
	// Observer is the fast path: Run then performs no clock reads and
	// no extra allocation — its whole cost is two nil checks
	// (BenchmarkEngineObserverOverhead pins this).
	Observer Observer
}

// Observer receives the execution report of one Run.
type Observer func(ExecReport)

// ExecReport summarizes one Run for an Observer: the measured
// counterparts of the planner's estimates, plus wall time.
type ExecReport struct {
	// Wall is the execution wall time.
	Wall time.Duration
	// Ops is the number of index rows visited.
	Ops int64
	// Count is the number of result rows.
	Count int64
	// Intermediate is a copy of Result.Intermediate (per-pattern actual
	// intermediate sizes in execution order).
	Intermediate []int64
	// TimedOut is true when MaxOps interrupted the execution.
	TimedOut bool
	// LimitHit is true when Options.Limit stopped the run early, making
	// Intermediate lower bounds of the full enumeration.
	LimitHit bool
	// Truncated is true when MaxIntermediate or MaxRows stopped the run
	// early, making Count and Intermediate lower bounds.
	Truncated bool
	// MergeWidth is Result.MergeWidth: the leading patterns that actually
	// ran as one sort-merge join.
	MergeWidth int
}

// Result holds the outcome of executing a BGP.
type Result struct {
	// Vars maps row columns to variable names.
	Vars []string
	// Rows holds the materialized bindings (nil when CountOnly).
	Rows [][]store.ID
	// Count is the number of result rows (exact unless TimedOut).
	Count int64
	// Intermediate[i] is the number of partial bindings after joining
	// patterns 0..i in the executed order — the "true join cardinality"
	// column of the paper's Table 2. On a merge-join run the leapfrog
	// alignment semi-join-reduces the prefix: for i < MergeWidth-1,
	// Intermediate[i] counts only bindings whose merge key survives every
	// merge leg (a lower bound of the nested-loop value — that reduction
	// is the algorithm's win); from i = MergeWidth-1 onward the values
	// are identical to a nested-loop run, so the final-step cardinality
	// feeding q-error stays exact.
	Intermediate []int64
	// Ops is the number of index rows visited, a deterministic measure
	// of plan work independent of wall-clock noise.
	Ops int64
	// TimedOut is true when MaxOps interrupted the execution.
	TimedOut bool
	// LimitHit is true when Options.Limit stopped the run early. In that
	// case Intermediate holds the sizes actually explored — exactly the
	// work performed, which is less than a full enumeration would
	// produce (pinned by TestLimitIntermediateAccounting).
	LimitHit bool
	// Truncated is true when a MaxIntermediate or MaxRows budget stopped
	// the run early: Rows holds the bindings produced so far, and Count
	// and Intermediate are lower bounds. This is the partial-result
	// contract — the run did not fail, it degraded.
	Truncated bool
	// MergeWidth is the number of leading patterns actually executed as
	// a sort-merge join (0 when the run used nested-loop joins only —
	// including when Options.MergeWidth was requested but validation
	// fell back).
	MergeWidth int
}

// compiledPattern precomputes, for one pattern, the constant IDs and the
// variable slots of each position. A constant missing from the dictionary
// makes the whole BGP empty; that is handled at compile time.
type compiledPattern struct {
	constS, constP, constO store.ID
	slotS, slotP, slotO    int // -1 when the position is constant
}

// Run executes patterns in the given order against st.
func Run(st Source, patterns []sparql.TriplePattern, opts Options) (*Result, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("engine: empty pattern list")
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, CtxError(err)
		}
	}
	var start time.Time
	if opts.Observer != nil {
		start = time.Now()
	}
	// finish reports a completed execution to the Observer, if any.
	finish := func(res *Result) (*Result, error) {
		if opts.Observer != nil {
			opts.Observer(ExecReport{
				Wall:         time.Since(start),
				Ops:          res.Ops,
				Count:        res.Count,
				Intermediate: append([]int64(nil), res.Intermediate...),
				TimedOut:     res.TimedOut,
				LimitHit:     res.LimitHit,
				Truncated:    res.Truncated,
				MergeWidth:   res.MergeWidth,
			})
		}
		return res, nil
	}
	res := &Result{Intermediate: make([]int64, len(patterns))}

	// Assign slots to variables in first-use order: required patterns
	// first, then OPTIONAL groups.
	slots := map[string]int{}
	assignSlots := func(tps []sparql.TriplePattern) {
		for _, tp := range tps {
			for _, v := range tp.Vars() {
				if _, ok := slots[v]; !ok {
					slots[v] = len(slots)
					res.Vars = append(res.Vars, v)
				}
			}
		}
	}
	assignSlots(patterns)
	for _, g := range opts.Optionals {
		assignSlots(g)
	}

	filters, err := compileFilters(st, patterns, opts.Filters, slots)
	if err != nil {
		return nil, err
	}

	compiled, empty := compilePatterns(st, patterns, slots)
	if empty {
		return finish(res)
	}
	groups := make([][]compiledPattern, 0, len(opts.Optionals))
	groupEmpty := make([]bool, 0, len(opts.Optionals))
	groupFilters := make([][][]compiledFilter, 0, len(opts.Optionals))
	for gi, g := range opts.Optionals {
		cg, gEmpty := compilePatterns(st, g, slots)
		groups = append(groups, cg)
		groupEmpty = append(groupEmpty, gEmpty)
		var gfs []sparql.Filter
		if gi < len(opts.OptionalFilters) {
			gfs = opts.OptionalFilters[gi]
		}
		gf, err := compileGroupFilters(st, patterns, g, gfs, slots)
		if err != nil {
			return nil, err
		}
		groupFilters = append(groupFilters, gf)
	}

	row := make([]store.ID, len(slots))
	exec := &executor{
		st:           st,
		compiled:     compiled,
		groups:       groups,
		groupEmpty:   groupEmpty,
		groupFilters: groupFilters,
		filters:      filters,
		row:          row,
		res:          res,
		opts:         opts,
		ctx:          opts.Ctx,
	}
	if opts.MergeWidth >= 2 {
		if ms, ok := slots[opts.MergeVar]; ok {
			if mj, ok := newMergeJoin(exec, opts.MergeWidth, ms); ok {
				res.MergeWidth = opts.MergeWidth
				exec.prepare()
				if err := mj.run(); err != nil {
					return nil, err
				}
				if exec.ctxErr != nil {
					return nil, CtxError(exec.ctxErr)
				}
				if exec.stopped && exec.budgetHit {
					res.TimedOut = true
				}
				res.LimitHit = exec.limitHit
				res.Truncated = exec.truncated
				return finish(res)
			}
		}
	}
	if cs, ok := st.(ChunkedSource); ok && opts.Parallelism > 1 && (opts.Limit == 0 || opts.CountOnly) {
		if err := runParallel(cs, exec, res); err != nil {
			return nil, CtxError(err)
		}
		return finish(res)
	}
	exec.prepare()
	exec.level(0)
	if exec.ctxErr != nil {
		return nil, CtxError(exec.ctxErr)
	}
	if exec.stopped && exec.budgetHit {
		res.TimedOut = true
	}
	res.LimitHit = exec.limitHit
	res.Truncated = exec.truncated
	return finish(res)
}

// compilePatterns resolves patterns to slots and constants. empty is
// true when a constant term does not occur in the data at all, making
// the pattern list unsatisfiable.
func compilePatterns(st Source, patterns []sparql.TriplePattern, slots map[string]int) (compiled []compiledPattern, empty bool) {
	compiled = make([]compiledPattern, len(patterns))
	for i, tp := range patterns {
		cp := compiledPattern{slotS: -1, slotP: -1, slotO: -1}
		bind := func(pt sparql.PatternTerm, slot *int, cst *store.ID) {
			if pt.IsVar() {
				*slot = slots[pt.Var]
				return
			}
			id, ok := st.Dict().Lookup(pt.Term)
			if !ok {
				empty = true
				return
			}
			*cst = id
		}
		bind(tp.S, &cp.slotS, &cp.constS)
		bind(tp.P, &cp.slotP, &cp.constP)
		bind(tp.O, &cp.slotO, &cp.constO)
		compiled[i] = cp
	}
	return compiled, empty
}

type executor struct {
	st           Source
	compiled     []compiledPattern
	groups       [][]compiledPattern  // OPTIONAL groups
	groupEmpty   []bool               // group references a term absent from the data
	groupFilters [][][]compiledFilter // per group, per group level: group-scoped filters
	filters      [][]compiledFilter   // per required level, applied once bound
	levels       []level              // per required pattern; see prepare
	groupLevels  [][]level            // per group, per group pattern
	matched      []bool               // per group: the current solution found a group match
	row          []store.ID
	res          *Result
	opts         Options
	ctx          context.Context // nil: no cancellation checks at all
	ctxErr       error           // the context error that aborted the run
	intermediate int64           // running total, maintained only under MaxIntermediate
	stopped      bool
	budgetHit    bool
	limitHit     bool
	truncated    bool

	// nops drives the amortized cancellation cadence. It equals res.Ops
	// in a serial run, but in a parallel run it is worker-lifetime state:
	// res is replaced per morsel while nops keeps counting, so every
	// worker checks for cancellation every ~1024 rows it visits even when
	// individual morsels are smaller than the check interval.
	nops int64
	// sh is the cross-worker governor state of a parallel run; nil in
	// serial runs, whose budget checks stay on the local fields above.
	sh *shared
	// chunk, when non-nil, enumerates the driver pattern's morsel in
	// place of a full Scan; consumed by the next scan call (level 0).
	chunk func(fn func(store.IDTriple) bool)

	// slab is the unused tail of the block result rows are carved from,
	// slabRows the size of the next block; see keepRow.
	slab     []store.ID
	slabRows int
}

// Result rows are carved from blocks that double from minSlabRows to
// maxSlabRows rows: a handful-of-rows answer allocates a handful of IDs,
// a 36 000-row one a few dozen blocks instead of a slice per row.
const (
	minSlabRows = 16
	maxSlabRows = 4096
)

// keepRow copies the current binding into a result row. The executor
// owns its blocks — a parallel worker carves from its own across morsels
// — and never reuses them, so a row stays valid for the Result's life.
func (e *executor) keepRow() []store.ID {
	w := len(e.row)
	if len(e.slab) < w {
		if e.slabRows < maxSlabRows {
			e.slabRows = max(minSlabRows, 2*e.slabRows)
		}
		e.slab = make([]store.ID, e.slabRows*w)
	}
	row := e.slab[:w:w]
	e.slab = e.slab[w:]
	copy(row, e.row)
	return row
}

// emit records one complete solution.
func (e *executor) emit() {
	e.res.Count++
	if !e.opts.CountOnly {
		e.res.Rows = append(e.res.Rows, e.keepRow())
		if e.opts.Limit > 0 && len(e.res.Rows) >= e.opts.Limit {
			e.stopped = true
			e.limitHit = true
		}
	}
	if e.opts.MaxRows > 0 {
		if e.sh != nil {
			n := e.sh.rows.Add(1)
			if n > e.opts.MaxRows {
				// Other workers already produced the budget's worth:
				// retract this row so the merged total is exactly MaxRows,
				// matching the serial contract.
				e.res.Count--
				if !e.opts.CountOnly {
					e.res.Rows = e.res.Rows[:len(e.res.Rows)-1]
				}
			}
			if n >= e.opts.MaxRows {
				e.stopped = true
				e.truncated = true
				e.sh.stop.Store(true)
			}
		} else if e.res.Count >= e.opts.MaxRows {
			e.stopped = true
			e.truncated = true
		}
	}
}

// level is one nested-loop level: a pattern, its filters and what a
// surviving binding continues into. The scan body and the continuation
// are closures built once (prepare), and what one probe adds to them —
// which positions it binds — lives here rather than in a fresh closure,
// so a probe allocates nothing. That is sound because a level is never
// re-entered while it is on the stack: required levels and a group's
// levels only ever call deeper ones.
type level struct {
	e       *executor
	cp      compiledPattern
	filters []compiledFilter
	cont    func()                    // the next level, group or emit
	body    func(store.IDTriple) bool // level.row as a func value

	newS, newP, newO bool // positions the probe in progress binds
}

// prepare builds the executor's levels. Every executor that runs levels
// — the serial one, the merge join's, each parallel worker's — calls it
// once before the first probe.
func (e *executor) prepare() {
	e.levels = make([]level, len(e.compiled))
	for i := range e.levels {
		e.levels[i] = level{e: e, cp: e.compiled[i], filters: e.filters[i], cont: func() {
			if e.countIntermediate(i) {
				e.level(i + 1)
			}
		}}
		e.levels[i].body = e.levels[i].row
	}
	e.groupLevels = make([][]level, len(e.groups))
	e.matched = make([]bool, len(e.groups))
	for g, group := range e.groups {
		ls := make([]level, len(group))
		for i := range ls {
			ls[i] = level{e: e, cp: group[i], filters: e.groupFilters[g][i], cont: func() { e.groupLevel(g, i+1) }}
			ls[i].body = ls[i].row
		}
		e.groupLevels[g] = ls
	}
}

// level evaluates required pattern i under the current partial binding.
func (e *executor) level(i int) {
	if e.stopped {
		return
	}
	if i == len(e.levels) {
		e.optional(0)
		return
	}
	e.levels[i].scan()
}

// countIntermediate charges one binding to required level i and reports
// whether execution may continue; a MaxIntermediate trip stops the run
// and marks it truncated. Shared by the nested-loop and merge paths so
// their intermediate accounting is identical by construction.
func (e *executor) countIntermediate(i int) bool {
	e.res.Intermediate[i]++
	if e.opts.MaxIntermediate > 0 {
		if e.sh != nil {
			if e.sh.inter.Add(1) > e.opts.MaxIntermediate {
				e.stopped = true
				e.truncated = true
				e.sh.stop.Store(true)
				return false
			}
		} else {
			e.intermediate++
			if e.intermediate > e.opts.MaxIntermediate {
				e.stopped = true
				e.truncated = true
				return false
			}
		}
	}
	return true
}

// visit charges one index row against the Ops budget and the amortized
// cancellation cadence; false means the enumeration must stop. Shared by
// the nested-loop scan body and the merge join's cursor pops so both
// paths observe budgets and cancellation with the same semantics.
func (e *executor) visit() bool {
	e.res.Ops++
	e.nops++
	if e.nops&cancelCheckMask == 0 && (e.ctx != nil || e.sh != nil) {
		if e.sh != nil && e.sh.stop.Load() {
			e.stopped = true
			return false
		}
		if e.ctx != nil {
			if err := e.ctx.Err(); err != nil {
				e.stopped = true
				e.ctxErr = err
				if e.sh != nil {
					e.sh.fail(err)
				}
				return false
			}
		}
	}
	if e.opts.MaxOps > 0 {
		if e.sh != nil {
			if e.sh.ops.Add(1) > e.opts.MaxOps {
				e.stopped = true
				e.budgetHit = true
				e.sh.stop.Store(true)
				return false
			}
		} else if e.res.Ops > e.opts.MaxOps {
			e.stopped = true
			e.budgetHit = true
			return false
		}
	}
	return true
}

// optional left-outer-joins OPTIONAL group g onto the current solution.
func (e *executor) optional(g int) {
	if e.stopped {
		return
	}
	if g == len(e.groups) {
		e.emit()
		return
	}
	e.matched[g] = false
	if !e.groupEmpty[g] {
		e.groupLevel(g, 0)
	}
	if !e.matched[g] && !e.stopped {
		// no match: keep the solution once, group variables unbound
		e.optional(g + 1)
	}
}

// groupLevel evaluates pattern i of OPTIONAL group g; a complete group
// match continues into the next group. Group-scoped filters are applied
// at their level: a failing filter rejects this group match only, so the
// enclosing solution survives with the group unbound.
func (e *executor) groupLevel(g, i int) {
	if e.stopped {
		return
	}
	if i == len(e.groupLevels[g]) {
		e.matched[g] = true
		e.optional(g + 1)
		return
	}
	e.groupLevels[g][i].scan()
}

// scan enumerates the matches of the level's pattern under the current
// binding; row extends the binding with each.
func (l *level) scan() {
	e, cp := l.e, l.cp
	pat := store.IDTriple{S: cp.constS, P: cp.constP, O: cp.constO}
	// Positions whose variable is already bound become constants; the
	// ones bound by this scan are recorded so they can be unbound again.
	l.newS, l.newP, l.newO = false, false, false
	if cp.slotS >= 0 {
		if v := e.row[cp.slotS]; v != 0 {
			pat.S = v
		} else {
			l.newS = true
		}
	}
	if cp.slotP >= 0 {
		if v := e.row[cp.slotP]; v != 0 {
			pat.P = v
		} else {
			l.newP = true
		}
	}
	if cp.slotO >= 0 {
		if v := e.row[cp.slotO]; v != 0 {
			pat.O = v
		} else {
			l.newO = true
		}
	}
	if chunk := e.chunk; chunk != nil {
		// Parallel driver level: enumerate this worker's morsel instead
		// of the full index range. Consumed here so nested levels scan
		// normally.
		e.chunk = nil
		chunk(l.body)
		return
	}
	e.st.Scan(pat, l.body)
}

// row is the scan body: it charges the visit, binds t's new positions,
// applies the level's filters and continues; false stops the scan.
func (l *level) row(t store.IDTriple) bool {
	e, cp := l.e, l.cp
	if !e.visit() {
		return false
	}
	// Bind the new positions, checking intra-pattern repeats such as
	// <?x p ?x>: the same slot may be "new" in two positions, in
	// which case the second occurrence must agree with the first.
	if l.newS {
		e.row[cp.slotS] = t.S
	}
	if l.newP {
		if prev := e.row[cp.slotP]; prev != 0 && prev != t.P {
			e.unbind(cp, l.newS, false, false)
			return true
		}
		e.row[cp.slotP] = t.P
	}
	if l.newO {
		if prev := e.row[cp.slotO]; prev != 0 && prev != t.O {
			e.unbind(cp, l.newS, l.newP, false)
			return true
		}
		e.row[cp.slotO] = t.O
	}
	for _, f := range l.filters {
		if !f.eval(e.row) {
			e.unbind(cp, l.newS, l.newP, l.newO)
			return true
		}
	}
	l.cont()
	e.unbind(cp, l.newS, l.newP, l.newO)
	return !e.stopped
}

func (e *executor) unbind(cp compiledPattern, s, p, o bool) {
	if s {
		e.row[cp.slotS] = 0
	}
	if p {
		e.row[cp.slotP] = 0
	}
	if o {
		e.row[cp.slotO] = 0
	}
}
