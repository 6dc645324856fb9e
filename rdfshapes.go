// Package rdfshapes is a SPARQL query optimizer driven by SHACL shape
// statistics, reproducing "Optimizing SPARQL Queries using Shape
// Statistics" (EDBT 2021).
//
// A DB bundles an in-memory RDF store with a SHACL shapes graph whose
// node and property shapes are annotated with statistics of the data
// (sh:count, sh:minCount, sh:maxCount, sh:distinctCount), plus
// extended-VoID global statistics. Queries are planned with the paper's
// greedy join-ordering algorithm over those statistics and executed with
// index nested-loop joins:
//
//	db, err := rdfshapes.LoadNTriples(file)
//	res, err := db.Query(`SELECT ?x WHERE { ?x a ub:Student . ?x ub:name ?n }`)
//
// Shapes may be supplied (WithShapesGraph) or inferred from the data;
// both are annotated automatically at load time.
//
// The dataset is mutable after load: DB.Update applies SPARQL INSERT
// DATA / DELETE DATA batches through a copy-on-write overlay
// (internal/live), statistics are maintained incrementally, and queries
// always run against one consistent snapshot. See docs/LIVE_UPDATES.md.
package rdfshapes

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rdfshapes/internal/annotator"
	"rdfshapes/internal/cardinality"
	"rdfshapes/internal/core"
	"rdfshapes/internal/engine"
	"rdfshapes/internal/gstats"
	"rdfshapes/internal/live"
	"rdfshapes/internal/obsv"
	"rdfshapes/internal/rdf"
	"rdfshapes/internal/shacl"
	"rdfshapes/internal/shard"
	"rdfshapes/internal/sparql"
	"rdfshapes/internal/store"
	"rdfshapes/internal/wal"
)

// DefaultCompactThreshold is the overlay size (added + deleted triples)
// past which a commit schedules background compaction into a new frozen
// base (override with WithAutoCompact).
const DefaultCompactThreshold = 1 << 16

// DefaultDriftThreshold is the accumulated statistics drift past which
// background re-annotation is triggered (override with
// WithDriftThreshold).
const DefaultDriftThreshold = 1 << 12

// DB is an RDF dataset with statistics, ready for querying and updating.
// All methods are safe for concurrent use (except SetCollector, see its
// doc): queries are wait-free against immutable snapshots, updates are
// serialized internally.
type DB struct {
	// Exactly one of live and shards is non-nil: live is the unsharded
	// dataset, shards the partitioned one (WithShards). The statistics
	// maintainer below is whole-dataset either way — in sharded mode it
	// consumes the group's combined commits, so planning statistics (and
	// therefore plans and row order) are identical to unsharded.
	live   *live.Store
	shards *shard.Group
	maint  *live.Maintainer

	// planner holds the current estimator pair built from the latest
	// maintained statistics; refreshed after every committed update.
	planner   atomic.Pointer[plannerState]
	plannerMu sync.Mutex // serializes refreshPlanner

	updateMu     sync.Mutex // serializes Update and Reannotate
	reannotating atomic.Bool
	updates      atomic.Int64 // Update calls that committed

	// lifecycle: begin/end bracket every public operation; Close flips
	// closed and waits for the in-flight count to drain, then stops the
	// background compactor. Background re-annotations go through
	// Reannotate, which brackets itself, so Close waits for those too.
	lifeMu   sync.Mutex
	closed   bool
	inflight sync.WaitGroup

	maxOps         int64
	defaultTimeout time.Duration
	limits         Limits
	parallelism    int
	obs            *obsv.Collector

	// adaptive, when non-nil, caches plans per query template and
	// invalidates them on observed q-error drift; see adaptive.go.
	adaptive *adaptive

	// durable, when non-nil, write-ahead-logs every commit before it is
	// applied and acknowledged; see durability.go and docs/DURABILITY.md.
	durable *wal.Manager

	// replica, when non-nil, marks a read-only replica tailing a durable
	// primary; see replica.go and docs/REPLICATION.md.
	replica *replicaState
}

// plannerState is one immutable version of the planning statistics and
// the estimators built over them.
type plannerState struct {
	shapes *shacl.ShapesGraph
	global *gstats.Global
	ss     *cardinality.ShapeEstimator
	gs     *cardinality.GlobalEstimator
}

// dataView is the read surface a per-call view executes against: one
// consistent, immutable version of the dataset. An unsharded DB hands
// out *live.Snapshot, a sharded one *shard.View; both satisfy
// engine.Source and shacl.Source here, and both also implement
// engine.ChunkedSource (detected by assertion in the engine) so
// morsel-parallel execution works identically.
type dataView interface {
	Dict() *store.Dict
	Scan(pat store.IDTriple, fn func(store.IDTriple) bool)
	Count(pat store.IDTriple) int
	Contains(t store.IDTriple) bool
	TypeID() store.ID
	Len() int
}

// view is the per-call execution context: one data snapshot, one
// planner state, and the call's context, taken together at the start of
// a public call so every branch of a query sees the same version and
// honors the same deadline.
type view struct {
	db   *DB
	snap dataView
	ps   *plannerState
	ctx  context.Context
}

func (db *DB) view() view { return db.viewCtx(context.Background()) }

func (db *DB) viewCtx(ctx context.Context) view {
	return view{db: db, snap: db.snapshotView(), ps: db.planner.Load(), ctx: ctx}
}

// snapshotView pins one consistent version of the dataset.
func (db *DB) snapshotView() dataView {
	if db.shards != nil {
		return db.shards.Snapshot()
	}
	return db.live.Snapshot()
}

// begin registers one in-flight public operation; Close waits for every
// begun operation to end before tearing the DB down.
func (db *DB) begin() error {
	db.lifeMu.Lock()
	defer db.lifeMu.Unlock()
	if db.closed {
		return ErrClosed
	}
	db.inflight.Add(1)
	return nil
}

func (db *DB) end() { db.inflight.Done() }

// withTimeout applies the DB's default timeout to a context that does
// not already carry a deadline. The returned cancel is never nil.
func (db *DB) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if db.defaultTimeout <= 0 {
		return ctx, func() {}
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, db.defaultTimeout)
}

// Close marks the DB closed, waits for in-flight queries, updates, and
// background re-annotations to finish, then stops the background
// compactor and waits for any running compaction. Operations started
// after Close return ErrClosed. Close is idempotent and safe to call
// concurrently.
func (db *DB) Close() error {
	db.lifeMu.Lock()
	if db.closed {
		db.lifeMu.Unlock()
		return nil
	}
	db.closed = true
	db.lifeMu.Unlock()
	if db.replica != nil {
		// Stop tailing before draining: an in-flight apply finishes (it
		// holds an inflight slot), then the follower goroutine exits.
		db.replica.cancel()
		<-db.replica.done
	}
	db.inflight.Wait()
	if db.shards != nil {
		db.shards.Close()
	} else {
		db.live.Close()
	}
	if db.durable != nil {
		return db.durable.Close() // flushes any SyncNever tail
	}
	return nil
}

type config struct {
	shapes         *shacl.ShapesGraph
	shards         int
	maxOps         int64
	defaultTimeout time.Duration
	limits         Limits
	parallelism    int
	compactAt      int
	driftAt        int64
	adaptiveAt     float64 // adaptive replan q-error threshold; <= 1 disables
	walDir         string
	walSync        SyncPolicy
	walFS          wal.FS // test hook; nil selects the real filesystem
	replicaOf      string
	replPoll       time.Duration
}

// Option customizes Load.
type Option func(*config)

// WithShapesGraph supplies a SHACL shapes graph shipped with the dataset
// instead of inferring one from the data.
func WithShapesGraph(sg *shacl.ShapesGraph) Option {
	return func(c *config) { c.shapes = sg }
}

// WithShards partitions the dataset into n shards hashed on the
// subject's dictionary ID (internal/shard, docs/SHARDING.md). Each
// shard maintains its own exact statistics under live updates, and the
// coordinator uses them to prune shards that provably hold no matches
// of a pattern. Planning statistics stay whole-dataset, so plans —
// and query results — are identical to an unsharded DB. n <= 1 (the
// default) keeps the single-store layout.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithOpsBudget caps the work of every Query/Count/Ask call at n index
// rows visited — the analog of a server-side query timeout. Exceeding
// the budget returns ErrBudgetExceeded. 0 (the default) means unlimited.
func WithOpsBudget(n int64) Option {
	return func(c *config) { c.maxOps = n }
}

// Limits are per-query execution budgets. Unlike WithOpsBudget, which
// fails the query, exceeding a Limit degrades it: execution stops and
// the partial result is returned with Result.Truncated set, so callers
// can serve what was computed instead of nothing. The zero value means
// unlimited.
type Limits struct {
	// MaxIntermediate caps the total intermediate bindings a query may
	// produce across all join levels — the quantity a mis-estimated plan
	// explodes, and the paper's plan-cost objective.
	MaxIntermediate int64
	// MaxRows caps the result rows a query may produce, before solution
	// modifiers (DISTINCT/ORDER BY/OFFSET/LIMIT).
	MaxRows int64
}

// WithLimits installs per-query budgets enforced during execution; see
// Limits for the partial-result contract.
func WithLimits(l Limits) Option {
	return func(c *config) { c.limits = l }
}

// WithDefaultTimeout applies d as the wall-clock deadline of every query
// whose context does not already carry one. Exceeding it returns
// ErrDeadline. 0 (the default) means no implicit deadline.
func WithDefaultTimeout(d time.Duration) Option {
	return func(c *config) { c.defaultTimeout = d }
}

// WithParallelism sets the number of workers executing each query's
// BGP (morsel parallelism over the driver pattern's index range —
// docs/PERFORMANCE.md). 1 forces the serial executor; values < 1 reset
// to the default, runtime.GOMAXPROCS(0). Results are bit-identical to a
// serial run — same rows in the same order, same Count, Ops, and
// intermediate-size accounting — and all budgets and deadlines keep
// their serial semantics.
func WithParallelism(n int) Option {
	return func(c *config) { c.parallelism = n }
}

// Parallelism returns the per-query worker count in effect
// (WithParallelism, default runtime.GOMAXPROCS(0)).
func (db *DB) Parallelism() int { return db.parallelism }

// ActiveParallelWorkers returns the number of parallel BGP worker
// goroutines currently executing across the process — the
// worker-utilization gauge exported at /metrics.
func ActiveParallelWorkers() int64 { return engine.ActiveParallelWorkers() }

// WithAutoCompact sets the overlay size (added + deleted triples) past
// which a committed update schedules background compaction into a new
// frozen base. n <= 0 disables auto-compaction. Default
// DefaultCompactThreshold.
func WithAutoCompact(n int) Option {
	return func(c *config) { c.compactAt = n }
}

// WithDriftThreshold sets the accumulated statistics drift past which
// background re-annotation (Reannotate) is triggered. n <= 0 disables
// the trigger; drift is still tracked and exposed via StatsDrift.
// Default DefaultDriftThreshold.
func WithDriftThreshold(n int64) Option {
	return func(c *config) { c.driftAt = n }
}

// ErrBudgetExceeded is returned when a query exceeds the DB's operation
// budget (WithOpsBudget).
var ErrBudgetExceeded = engine.ErrBudgetExceeded

// ErrCanceled is returned when a query's context is canceled mid-run —
// typically a client that disconnected.
var ErrCanceled = engine.ErrCanceled

// ErrDeadline is returned when a query's context deadline (explicit or
// WithDefaultTimeout) passes mid-run.
var ErrDeadline = engine.ErrDeadline

// ErrClosed is returned by every operation started after Close.
var ErrClosed = errors.New("rdfshapes: database is closed")

// Load builds a DB from parsed triples: it indexes the data, obtains a
// shapes graph (supplied or inferred), and computes global and shape
// statistics.
func Load(g rdf.Graph, opts ...Option) (*DB, error) {
	return fromStore(store.Load(g), opts...)
}

// newConfig folds the options over the defaults.
func newConfig(opts []Option) config {
	cfg := config{compactAt: DefaultCompactThreshold, driftAt: DefaultDriftThreshold}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.parallelism < 1 {
		cfg.parallelism = runtime.GOMAXPROCS(0)
	}
	return cfg
}

// fromStore finishes DB construction over an already-indexed store,
// seeding a durability directory when WithDurability asked for one.
func fromStore(st *store.Store, opts ...Option) (*DB, error) {
	cfg := newConfig(opts)
	if cfg.replicaOf != "" {
		return nil, errors.New("rdfshapes: a replica bootstraps from its primary, not local data; use OpenReplica")
	}
	db, err := fromStoreCfg(st, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.walDir != "" {
		if err := db.attachDurability(cfg); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// fromStoreCfg builds the DB core (statistics, planner, live overlay)
// without touching durability; Open and fromStore layer that on top.
func fromStoreCfg(st *store.Store, cfg config) (*DB, error) {
	shapes := cfg.shapes
	if shapes == nil {
		inferred, err := shacl.InferShapes(st)
		if err != nil {
			return nil, fmt.Errorf("rdfshapes: inferring shapes: %w", err)
		}
		shapes = inferred
	}
	global := gstats.Compute(st)
	if shapes.Len() > 0 {
		if err := annotator.Annotate(shapes, st); err != nil {
			return nil, fmt.Errorf("rdfshapes: annotating shapes: %w", err)
		}
	}
	db := &DB{
		maxOps:         cfg.maxOps,
		defaultTimeout: cfg.defaultTimeout,
		limits:         cfg.limits,
		parallelism:    cfg.parallelism,
	}
	if cfg.adaptiveAt > 1 {
		db.adaptive = newAdaptive(cfg.adaptiveAt)
	}
	if cfg.shards > 1 {
		g, err := shard.New(st, cfg.shards, shapes)
		if err != nil {
			return nil, fmt.Errorf("rdfshapes: sharding: %w", err)
		}
		g.SetAutoCompact(cfg.compactAt)
		db.shards = g
	} else {
		db.live = live.Wrap(st)
		db.live.SetAutoCompact(cfg.compactAt)
	}
	db.maint = live.NewMaintainer(
		live.Stats{Global: global, Shapes: shapes},
		cfg.driftAt,
		// Background trigger; Reannotate re-arms it on failure.
		func() { db.Reannotate() },
	)
	db.refreshPlanner()
	return db, nil
}

// refreshPlanner rebuilds the estimator pair from the latest maintained
// statistics and publishes it. The mutex only orders concurrent
// refreshes; a late rebuild re-reads Current, so it can repeat work but
// never install stale statistics.
func (db *DB) refreshPlanner() {
	db.plannerMu.Lock()
	defer db.plannerMu.Unlock()
	s := db.maint.Current()
	db.planner.Store(&plannerState{
		shapes: s.Shapes,
		global: s.Global,
		ss:     cardinality.NewShapeEstimator(s.Shapes, s.Global),
		gs:     cardinality.NewGlobalEstimator(s.Global),
	})
}

// applyBatch commits one batch through the layout in effect — the
// single live store, or the shard group routing sub-batches to owning
// shards — and feeds the whole-dataset statistics maintainer. Both the
// update path and WAL replay go through it. Callers hold updateMu.
func (db *DB) applyBatch(b live.Batch) live.CommitInfo {
	var ci live.CommitInfo
	if db.shards != nil {
		ci = db.shards.Apply(b)
	} else {
		ci = db.live.Apply(b)
	}
	db.maint.Apply(ci)
	return ci
}

// UpdateResult reports the effective changes of one Update call:
// requested no-ops (inserting a triple already present, deleting one not
// present) are excluded.
type UpdateResult struct {
	Inserted int
	Deleted  int
}

// Update parses and applies a SPARQL UPDATE request (INSERT DATA and
// DELETE DATA operations, ';'-separated). Each operation commits
// atomically: a concurrent query sees either none or all of its changes.
// Statistics are maintained incrementally, so planner estimates reflect
// the new state as soon as Update returns.
func (db *DB) Update(src string) (*UpdateResult, error) {
	return db.UpdateCtx(context.Background(), src)
}

// UpdateCtx is Update honoring a context: cancellation is checked
// between the request's operations, so an aborted request stops applying
// further operations — the ones already committed stay committed (each
// is atomic on its own) and are reported in the returned UpdateResult
// alongside ErrCanceled or ErrDeadline.
func (db *DB) UpdateCtx(ctx context.Context, src string) (*UpdateResult, error) {
	if err := db.begin(); err != nil {
		return nil, err
	}
	defer db.end()
	if db.replica != nil {
		return nil, ErrReadOnlyReplica
	}
	req, err := sparql.ParseUpdate(src)
	if err != nil {
		return nil, err
	}
	db.updateMu.Lock()
	defer db.updateMu.Unlock()
	res := &UpdateResult{}
	committed := false
	for _, op := range req.Ops {
		if err := ctx.Err(); err != nil {
			if committed {
				db.refreshPlanner()
				db.updates.Add(1)
			}
			return res, engine.CtxError(err)
		}
		var b live.Batch
		if op.Insert {
			b.Insert = op.Triples
		} else {
			b.Delete = op.Triples
		}
		// Write-ahead: the operation is logged and (under SyncAlways)
		// fsynced before it is applied or acknowledged, so recovery can
		// never miss an acknowledged commit. A WAL failure refuses the
		// operation — already-committed earlier operations stand.
		if db.durable != nil {
			if err := db.durable.Append(wal.Batch{Insert: b.Insert, Delete: b.Delete}); err != nil {
				if committed {
					db.refreshPlanner()
					db.updates.Add(1)
				}
				return res, err
			}
		}
		ci := db.applyBatch(b)
		committed = true
		res.Inserted += len(ci.Inserted)
		res.Deleted += len(ci.Deleted)
	}
	db.refreshPlanner()
	db.updates.Add(1)
	return res, nil
}

// Reannotate compacts the overlay into a fresh frozen base, recomputes
// global statistics and shape annotations from scratch, and zeroes the
// drift counter. It runs automatically in the background once drift
// passes the threshold (WithDriftThreshold); it is exported for explicit
// refreshes and tests. Queries are never blocked; concurrent updates
// wait for the recompute.
func (db *DB) Reannotate() error {
	if err := db.begin(); err != nil {
		return err // closed: the drift trigger dies with the DB
	}
	defer db.end()
	if !db.reannotating.CompareAndSwap(false, true) {
		return nil // a re-annotation is already running
	}
	defer db.reannotating.Store(false)
	db.updateMu.Lock()
	defer db.updateMu.Unlock()
	var base *store.Store
	if db.shards != nil {
		// Compact every shard and recompute its statistics from scratch,
		// then rebuild the whole-dataset statistics over the merged view.
		if _, err := db.shards.Refresh(); err != nil {
			return err
		}
		merged, err := db.shards.Merged()
		if err != nil {
			return err
		}
		base = merged
	} else {
		snap, err := db.live.Compact()
		if err != nil {
			return err
		}
		base = snap.Base()
	}
	global := gstats.Compute(base)
	shapes := db.planner.Load().shapes.Clone()
	if shapes.Len() > 0 {
		if err := annotator.Annotate(shapes, base); err != nil {
			// Keep the maintained statistics; drift stays nonzero and the
			// trigger is re-armed so a later commit retries.
			db.maint.Rearm()
			return fmt.Errorf("rdfshapes: re-annotating: %w", err)
		}
	}
	db.maint.Reset(live.Stats{Global: global, Shapes: shapes})
	db.refreshPlanner()
	return nil
}

// StatsDrift returns the accumulated approximation drift of the
// incrementally maintained statistics since the last (re-)annotation.
func (db *DB) StatsDrift() int64 { return db.maint.Drift() }

// OverlaySize returns the live overlay's added and deleted triple
// counts — summed across shards on a sharded DB.
func (db *DB) OverlaySize() (added, deleted int) {
	if db.shards != nil {
		return db.shards.OverlaySize()
	}
	return db.live.OverlaySize()
}

// UpdatesApplied returns the number of committed Update calls.
func (db *DB) UpdatesApplied() int64 { return db.updates.Load() }

// LoadNTriples reads N-Triples data and builds a DB.
func LoadNTriples(r io.Reader, opts ...Option) (*DB, error) {
	g, err := rdf.ParseNTriples(r)
	if err != nil {
		return nil, err
	}
	return Load(g, opts...)
}

// WriteSnapshot persists the indexed data in the store's binary snapshot
// format, compacting any pending overlay first so the snapshot includes
// every committed update. Statistics are not stored; LoadSnapshot
// recomputes them, which is cheap relative to parsing text formats.
func (db *DB) WriteSnapshot(w io.Writer) error {
	if err := db.begin(); err != nil {
		return err
	}
	defer db.end()
	if db.shards != nil {
		merged, err := db.shards.Merged()
		if err != nil {
			return err
		}
		return merged.WriteSnapshot(w)
	}
	snap, err := db.live.Compact()
	if err != nil {
		return err
	}
	return snap.Base().WriteSnapshot(w)
}

// LoadSnapshot rebuilds a DB from WriteSnapshot output, re-deriving (or
// re-annotating, when WithShapesGraph supplies them) shapes and
// statistics.
func LoadSnapshot(r io.Reader, opts ...Option) (*DB, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("rdfshapes: reading snapshot: %w", err)
	}
	st, err := store.ReadSnapshot(data)
	if err != nil {
		return nil, err
	}
	return fromStore(st, opts...)
}

// Result is a materialized query result.
type Result struct {
	// Vars lists the projected variable names.
	Vars []string
	// Rows holds one binding map per result, variable → term in
	// N-Triples syntax.
	Rows []map[string]string
	// Plan is the executed join order, for diagnostics.
	Plan string
	// Truncated is true when a WithLimits budget stopped execution
	// early: Rows holds the solutions computed within budget — a valid
	// subset, not a failure. Callers should surface the flag (the HTTP
	// server adds "truncated":true to the JSON payload).
	Truncated bool
	// Ask is true when the query parsed as ASK: execution stopped at the
	// first solution, and the answer is whether Rows is non-empty.
	Ask bool
}

// ErrConstruct is returned by Query and QueryCtx for a CONSTRUCT query,
// whose answer is a graph, not bindings: evaluate it with Construct.
var ErrConstruct = errors.New("rdfshapes: CONSTRUCT queries go through Construct, not Query")

// Query parses, optimizes (with shape statistics), executes, and
// materializes a SELECT query, applying FILTER, ORDER BY, OFFSET, and
// LIMIT. For ASK queries, Rows is non-empty iff the pattern matches; use
// Ask for a boolean answer.
func (db *DB) Query(src string) (*Result, error) {
	return db.QueryCtx(context.Background(), src)
}

// QueryCtx is Query honoring a context: execution checks for
// cancellation every ~1024 index rows visited, returning ErrCanceled on
// cancel and ErrDeadline when the deadline (the context's, or
// WithDefaultTimeout's) passes — so even a pathologically mis-planned
// join is interrupted within microseconds of the signal.
func (db *DB) QueryCtx(ctx context.Context, src string) (*Result, error) {
	b, err := db.SelectCtx(ctx, src)
	if err != nil {
		return nil, err
	}
	return &Result{Vars: b.Vars, Rows: b.Maps(), Plan: b.Plan, Truncated: b.Truncated, Ask: b.Ask}, nil
}

// countSolutions counts solutions of the (possibly UNION) BGP with its
// filters, before projection and modifiers. truncated reports that a
// budget stopped enumeration, making the count a lower bound.
func (v view) countSolutions(src string, q *sparql.Query) (n int64, truncated bool, err error) {
	if len(q.UnionGroups) == 0 {
		plan := v.plan(q)
		er, err := v.exec(src, plan, engine.Options{CountOnly: true, Filters: q.Filters, Optionals: q.Optionals, OptionalFilters: q.OptionalFilters})
		if err != nil {
			return 0, false, err
		}
		return er.Count, er.Truncated, nil
	}
	var total int64
	for i := range q.UnionGroups {
		bq := q.Branch(i)
		plan := v.plan(bq)
		er, err := v.exec(src, plan, engine.Options{CountOnly: true, Filters: bq.Filters})
		if err != nil {
			return 0, false, err
		}
		truncated = truncated || er.Truncated
		total += er.Count
	}
	return total, truncated, nil
}

// Ask answers an ASK query (or any query treated as an existence check):
// true iff the BGP with its filters has at least one match.
func (db *DB) Ask(src string) (bool, error) {
	return db.AskCtx(context.Background(), src)
}

// AskCtx is Ask honoring a context; see QueryCtx for the cancellation
// and deadline semantics.
func (db *DB) AskCtx(ctx context.Context, src string) (bool, error) {
	if err := db.begin(); err != nil {
		return false, err
	}
	defer db.end()
	ctx, cancel := db.withTimeout(ctx)
	defer cancel()
	q, err := sparql.Parse(src)
	if err != nil {
		return false, err
	}
	// Whatever form the query has, only its pattern is asked about.
	q.Ask = true
	q.Construct, q.Aggregate, q.Projection, q.OrderBy = nil, nil, nil, nil
	q.Distinct, q.Offset, q.Limit = false, 0, 0
	b, err := db.viewCtx(ctx).selectParsed(src, q)
	if err != nil {
		return false, err
	}
	return len(b.Rows) > 0, nil
}

// Count executes the query and returns the number of filtered results
// before projection, DISTINCT, and LIMIT — the BGP's true cardinality.
func (db *DB) Count(src string) (int64, error) {
	return db.CountCtx(context.Background(), src)
}

// CountCtx is Count honoring a context; see QueryCtx for the
// cancellation and deadline semantics.
func (db *DB) CountCtx(ctx context.Context, src string) (int64, error) {
	if err := db.begin(); err != nil {
		return 0, err
	}
	defer db.end()
	ctx, cancel := db.withTimeout(ctx)
	defer cancel()
	q, err := sparql.Parse(src)
	if err != nil {
		return 0, err
	}
	n, _, err := db.viewCtx(ctx).countSolutions(src, q)
	return n, err
}

// Explain returns the query plan built with the requested statistics:
// "SS" (shape statistics, the default) or "GS" (global statistics).
func (db *DB) Explain(src, approach string) (string, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return "", err
	}
	v := db.view()
	switch approach {
	case "", "SS":
		return v.plan(q).String(), nil
	case "GS":
		p := core.Optimize(q, v.ps.gs)
		v.annotate(p)
		return p.String(), nil
	default:
		return "", fmt.Errorf("rdfshapes: unknown approach %q (want SS or GS)", approach)
	}
}

// EstimateCount returns the shape-statistics estimate of the query's
// result cardinality, without executing it.
func (db *DB) EstimateCount(src string) (float64, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return 0, err
	}
	v := db.view()
	plan := v.plan(q)
	est, _ := cardinality.SequenceEstimate(q, plan.Order(), v.estimatorFor(q))
	return est * cardinality.FilterSelectivity(q), nil
}

// QueryEach calls fn with each projected binding map of a SELECT query,
// in result order, until fn returns false; each map is rendered only when
// its turn comes. A plain LIMIT is pushed into execution, so enumeration
// stops at the limit; solution modifiers that need the whole result
// (DISTINCT, ORDER BY, OFFSET) and the UNION/aggregate forms get no such
// push-down.
func (db *DB) QueryEach(src string, fn func(row map[string]string) bool) error {
	if err := db.begin(); err != nil {
		return err
	}
	defer db.end()
	ctx, cancel := db.withTimeout(context.Background())
	defer cancel()
	q, err := sparql.Parse(src)
	if err != nil {
		return err
	}
	v := db.viewCtx(ctx)
	var b *Bindings
	if q.Distinct || len(q.OrderBy) > 0 || q.Offset > 0 || q.Ask ||
		len(q.UnionGroups) > 0 || q.Aggregate != nil || len(q.Construct) > 0 {
		b, err = v.selectParsed(src, q)
	} else {
		b, err = v.selectBGP(src, q, q.Limit)
	}
	if err != nil {
		return err
	}
	b.solutions().Each(b.Term, fn)
	return nil
}

// Construct evaluates a CONSTRUCT query: the WHERE part runs like a
// SELECT, and every solution instantiates the template into result
// triples. Template triples with an unbound variable, a literal subject,
// or a non-IRI predicate are skipped for that solution, per SPARQL.
// Blank nodes in the template are minted fresh per solution. The result
// graph is deduplicated.
func (db *DB) Construct(src string) (rdf.Graph, error) {
	return db.ConstructCtx(context.Background(), src)
}

// ConstructCtx is Construct honoring a context; see QueryCtx for the
// cancellation and deadline semantics.
func (db *DB) ConstructCtx(ctx context.Context, src string) (rdf.Graph, error) {
	if err := db.begin(); err != nil {
		return nil, err
	}
	defer db.end()
	ctx, cancel := db.withTimeout(ctx)
	defer cancel()
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(q.Construct) == 0 {
		return nil, fmt.Errorf("rdfshapes: Construct requires a CONSTRUCT query")
	}
	inner := q.Clone()
	inner.Construct = nil
	inner.Projection = nil // bind everything the template may need
	inner.Distinct = false
	b, err := db.viewCtx(ctx).selectParsed(src, inner)
	if err != nil {
		return nil, err
	}
	col := map[string]int{}
	for i, v := range b.Vars {
		col[v] = b.Cols[i]
	}

	var out rdf.Graph
	seen := map[rdf.Triple]bool{}
	for rowNo, row := range b.Rows {
		resolve := func(pt sparql.PatternTerm) (rdf.Term, bool) {
			if !pt.IsVar() {
				if pt.Term.IsBlank() {
					// fresh blank node per solution
					return rdf.NewBlank(fmt.Sprintf("c%d-%s", rowNo, pt.Term.Value)), true
				}
				return pt.Term, true
			}
			c, ok := col[pt.Var]
			if !ok || row[c] == 0 {
				return rdf.Term{}, false
			}
			return b.Term(row[c]), true
		}
		for _, tmpl := range q.Construct {
			s, ok := resolve(tmpl.S)
			if !ok || s.IsLiteral() {
				continue
			}
			p, ok := resolve(tmpl.P)
			if !ok || !p.IsIRI() {
				continue
			}
			o, ok := resolve(tmpl.O)
			if !ok {
				continue
			}
			t := rdf.Triple{S: s, P: p, O: o}
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out, nil
}

// Validate checks the data against the shapes graph's constraints and
// returns up to limit violations (0 = all). It runs against the current
// merged snapshot — base plus any uncompacted overlay — so committed
// updates are always validated, without triggering a compaction.
func (db *DB) Validate(limit int) []shacl.Violation {
	return db.Shapes().Validate(db.snapshotView(), limit)
}

// Shapes exposes the current annotated shapes graph. The returned graph
// is an immutable version: updates publish fresh copies rather than
// mutating it.
func (db *DB) Shapes() *shacl.ShapesGraph { return db.planner.Load().shapes }

// Stats exposes the current extended-VoID global statistics. The
// returned value is an immutable version: updates publish fresh copies
// rather than mutating it.
func (db *DB) Stats() *gstats.Global { return db.planner.Load().global }

// Store exposes the current frozen base store, excluding any
// uncompacted overlay. On a sharded DB it materializes the merged
// dataset (O(n)) instead. Tools that need the full committed dataset as
// a *store.Store should call WriteSnapshot or Validate semantics
// instead; query paths use consistent snapshots internally.
func (db *DB) Store() *store.Store {
	if db.shards != nil {
		// Merged only fails on dictionary exhaustion, impossible when
		// re-adding IDs the dictionary already holds.
		merged, _ := db.shards.Merged()
		return merged
	}
	return db.live.Base()
}

// Live exposes the live overlay store for advanced integrations; nil on
// a sharded DB (use Shards).
func (db *DB) Live() *live.Store { return db.live }

// Shards exposes the shard group of a WithShards DB; nil otherwise.
func (db *DB) Shards() *shard.Group { return db.shards }

// Sharded returns the shard count, or 0 for a single-store DB.
func (db *DB) Sharded() int {
	if db.shards == nil {
		return 0
	}
	return db.shards.N()
}

// NumTriples returns the dataset size, including committed updates.
func (db *DB) NumTriples() int { return db.snapshotView().Len() }

// Collector returns the installed observability collector, or nil.
func (db *DB) Collector() *obsv.Collector { return db.obs }

// SetCollector installs (or removes, with nil) the observability
// collector: every query run through the DB then records a trace (plan,
// per-pattern estimated vs. actual cardinalities, q-error, ops, wall
// time) into its ring buffer and cumulative metrics. Without a collector
// (the default), query execution takes the nil-collector fast path and
// pays no instrumentation cost. Not safe to call concurrently with
// queries; set it up before serving traffic.
func (db *DB) SetCollector(c *obsv.Collector) { db.obs = c }

// WriteShapesTurtle serializes the annotated shapes graph as Turtle.
func (db *DB) WriteShapesTurtle(w io.Writer) error {
	return db.Shapes().WriteTurtle(w, nil)
}

// exec executes a planned BGP with the DB's governor applied: the
// operation budget (WithOpsBudget), the intermediate/row budgets
// (WithLimits), and the call context's cancellation and deadline.
func (v view) exec(src string, plan *core.Plan, opts engine.Options) (*engine.Result, error) {
	db := v.db
	opts.MaxOps = db.maxOps
	opts.MaxIntermediate = db.limits.MaxIntermediate
	opts.MaxRows = db.limits.MaxRows
	opts.Parallelism = db.parallelism
	opts.MergeWidth = plan.MergeWidth
	opts.MergeVar = plan.MergeVar
	if v.ctx != nil && v.ctx != context.Background() {
		opts.Ctx = v.ctx
	}
	er, err := v.run(src, plan, opts)
	if err != nil {
		return nil, err
	}
	if er.TimedOut {
		return nil, fmt.Errorf("rdfshapes: %w (budget %d)", ErrBudgetExceeded, db.maxOps)
	}
	return er, nil
}

// run is engine.Run plus whoever consumes the execution report: the
// adaptive replan tracker, and an installed collector, for which it
// records a query trace. With neither it asks the engine for no report,
// which keeps the engine's unobserved fast path.
func (v view) run(src string, plan *core.Plan, opts engine.Options) (*engine.Result, error) {
	db := v.db
	if db.obs == nil && db.adaptive == nil {
		return engine.Run(v.snap, plan.Order(), opts)
	}
	var rep *engine.ExecReport // stays nil when the engine fails before reporting
	opts.Observer = func(r engine.ExecReport) { rep = &r }
	er, err := engine.Run(v.snap, plan.Order(), opts)

	// Only complete executions feed the adaptive replan tracker: partial
	// actuals are lower bounds and would register as fake drift.
	if db.adaptive != nil && err == nil && rep != nil &&
		!rep.TimedOut && !rep.LimitHit && !rep.Truncated {
		db.adaptive.observe(plan, rep.Intermediate)
	}
	if db.obs != nil {
		db.obs.Record(plan.Trace(src, rep, err))
	}
	return er, err
}

func (v view) plan(q *sparql.Query) *core.Plan {
	var p *core.Plan
	if a := v.db.adaptive; a != nil && len(q.Patterns) > 0 {
		p = a.plan(q, v.estimatorFor(q))
	} else {
		p = core.Optimize(q, v.estimatorFor(q))
	}
	v.annotate(p)
	return p
}

// annotate runs the physical join-algorithm selection against the
// view's snapshot, gated on the snapshot actually implementing the
// ordered-runs capability the merge join consumes. Adaptive plan-cache
// hits return a fresh Plan with copied steps, so per-call annotation
// never leaks into the cache.
func (v view) annotate(p *core.Plan) {
	if _, ok := v.snap.(engine.OrderedSource); !ok {
		return
	}
	core.AnnotatePhysical(p, core.LeadAvailableProbe, core.SourceLegRows(v.snap))
}

// estimatorFor applies the paper's Section 6.1 rule: shape statistics
// when the query has a type-defined triple pattern, global otherwise.
func (v view) estimatorFor(q *sparql.Query) cardinality.Estimator {
	if q.HasTypePattern() && v.ps.shapes.Annotated() {
		return v.ps.ss
	}
	return v.ps.gs
}
