package main

// Every import of the program's internal packages is in this file, so
// what the benchmark knows about the program's insides can be read in
// one place: the dataset generator, the independent evaluation path the
// oracle uses, and the calls into each layer that the traced run times
// from outside.

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rdfshapes"
	"rdfshapes/internal/annotator"
	"rdfshapes/internal/cardinality"
	"rdfshapes/internal/core"
	"rdfshapes/internal/datagen/lubm"
	"rdfshapes/internal/engine"
	"rdfshapes/internal/gstats"
	"rdfshapes/internal/live"
	"rdfshapes/internal/rdf"
	"rdfshapes/internal/server"
	"rdfshapes/internal/shard"
	"rdfshapes/internal/sparql"
	"rdfshapes/internal/store"
)

func generate(c *config, scale int) rdf.Graph {
	return lubm.Generate(lubm.Config{Universities: scale, Seed: c.wl.Dataset.Seed})
}

// loadOracle generates the dataset and builds the oracle over it.
func loadOracle(c *config, scale int) *oracle {
	return newOracle(store.Load(generate(c, scale)))
}

// loadEntities lists what the stream draws constants from.
func loadEntities(c *config, scale int) (entities, error) {
	depts, err := loadOracle(c, scale).departments()
	return entities{Depts: depts, Universities: scale}, err
}

// oracle computes expected answers in the benchmark's own process by a
// path the server does not take: global statistics only, nested-loop
// joins only, one worker, rows read straight from the dictionary. Join
// order and executor may change cost, never answers, so every server
// response must digest to what this path gives.
type oracle struct {
	st    *store.Store
	gs    *cardinality.GlobalEstimator
	cache map[string]digest
}

func newOracle(st *store.Store) *oracle {
	return &oracle{st: st, gs: cardinality.NewGlobalEstimator(gstats.Compute(st)), cache: map[string]digest{}}
}

func (o *oracle) answer(text string) (digest, error) {
	if d, ok := o.cache[text]; ok {
		return d, nil
	}
	q, err := sparql.Parse(text)
	if err != nil {
		return digest{}, fmt.Errorf("oracle: %w", err)
	}
	if q.Distinct || q.Limit > 0 || q.Offset > 0 || len(q.OrderBy) > 0 || len(q.UnionGroups) > 0 ||
		q.Aggregate != nil || len(q.Construct) > 0 || len(q.Optionals) > 0 {
		return digest{}, fmt.Errorf("oracle: query form not covered: %s", text)
	}
	opts := engine.Options{Filters: q.Filters, Parallelism: 1}
	if q.Ask {
		opts.Limit = 1
	}
	res, err := engine.Run(o.st, core.Optimize(q, o.gs).Order(), opts)
	if err != nil {
		return digest{}, fmt.Errorf("oracle: %w", err)
	}
	d := digest{Boolean: -1}
	if q.Ask {
		if res.Count > 0 {
			d.Boolean = 1
		} else {
			d.Boolean = 0
		}
		o.cache[text] = d
		return d, nil
	}
	proj := q.Projection
	if len(proj) == 0 {
		proj = res.Vars
	}
	cols := make([]int, len(proj))
	for i, v := range proj {
		cols[i] = -1
		for c, rv := range res.Vars {
			if rv == v {
				cols[i] = c
			}
		}
		if cols[i] < 0 && len(res.Rows) > 0 {
			return digest{}, fmt.Errorf("oracle: projected ?%s not bound: %s", v, text)
		}
	}
	type cell struct {
		col int
		id  store.ID
	}
	hashes := map[cell]uint64{}
	dict := o.st.Dict()
	for _, row := range res.Rows {
		var sum uint64
		for i, c := range cols {
			id := row[c]
			if id == 0 {
				continue
			}
			h, ok := hashes[cell{i, id}]
			if !ok {
				h = jsonTermHash(proj[i], dict.Term(id))
				hashes[cell{i, id}] = h
			}
			sum += h
		}
		d.Rows++
		d.Sum += rowHash(sum)
	}
	o.cache[text] = d
	return d, nil
}

// jsonTermHash hashes a term as the SPARQL 1.1 JSON results format
// presents it: plain and xsd:string literals carry no datatype.
func jsonTermHash(v string, t rdf.Term) uint64 {
	typ, datatype := "literal", ""
	switch t.Kind {
	case rdf.IRI:
		typ = "uri"
	case rdf.Blank:
		typ = "bnode"
	default:
		if t.Lang == "" && t.Datatype != rdf.XSDString {
			datatype = t.Datatype
		}
	}
	return termHash([]byte(v), []byte(typ), []byte(t.Value), []byte(t.Lang), []byte(datatype))
}

// departments lists the dataset's departments by asking the oracle, so
// the stream's constants are drawn from what was actually generated.
func (o *oracle) departments() ([]dept, error) {
	q, err := sparql.Parse("SELECT ?d WHERE { ?d <" + rdfType + "> <" + ubNS + "Department> }")
	if err != nil {
		return nil, err
	}
	res, err := engine.Run(o.st, q.Patterns, engine.Options{})
	if err != nil {
		return nil, err
	}
	var out []dept
	for _, row := range res.Rows {
		var d dept
		iri := o.st.Dict().Term(row[0]).Value
		if _, err := fmt.Sscanf(iri, lubmBase+"U%d/Dept%d", &d.U, &d.D); err != nil {
			return nil, fmt.Errorf("department IRI %q does not follow the generator's scheme: %w", iri, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// ---- the traced run -------------------------------------------------

// traceDB is one server configuration loaded in the benchmark's own
// process: the facade DB and the HTTP handler the server would put in
// front of it.
type traceDB struct {
	db      *rdfshapes.DB
	handler *server.Handler
	opts    []rdfshapes.Option
	dir     string // durability directory, "" when not durable
	timeout time.Duration
}

// facadeConfig translates a workload's pinned server flags into the
// options cmd/server would build from them. A flag it does not know
// fails the run: a traced configuration that silently differs from the
// served one would explain nothing.
func facadeConfig(flags []string) (opts []rdfshapes.Option, cfg server.Config, err error) {
	// cmd/server's own defaults for flags the workloads leave alone.
	opts = []rdfshapes.Option{rdfshapes.WithShapesGraph(lubm.Shapes()), rdfshapes.WithOpsBudget(50 << 20)}
	if len(flags)%2 != 0 {
		return nil, cfg, fmt.Errorf("server flags must be -name value pairs: %v", flags)
	}
	for i := 0; i < len(flags); i += 2 {
		name, val := flags[i], flags[i+1]
		switch name {
		case "-dataset", "-scale", "-seed": // the dataset is generated by generate
		case "-parallelism", "-max-concurrent", "-shards":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, cfg, fmt.Errorf("%s %s: %w", name, val, err)
			}
			switch name {
			case "-parallelism":
				opts = append(opts, rdfshapes.WithParallelism(n))
			case "-max-concurrent":
				cfg.MaxConcurrent = n
			case "-shards":
				opts = append(opts, rdfshapes.WithShards(n))
			}
		case "-queue-wait", "-query-timeout":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, cfg, fmt.Errorf("%s %s: %w", name, val, err)
			}
			if name == "-queue-wait" {
				cfg.QueueWait = d
			} else {
				cfg.QueryTimeout = d
			}
		case "-fsync":
			p, err := rdfshapes.ParseSyncPolicy(val)
			if err != nil {
				return nil, cfg, err
			}
			opts = append(opts, rdfshapes.WithSyncPolicy(p))
		case "-adaptive-qerror":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, cfg, fmt.Errorf("%s %s: %w", name, val, err)
			}
			opts = append(opts, rdfshapes.WithAdaptiveReplan(f))
		default:
			return nil, cfg, fmt.Errorf("the traced run does not know server flag %s; teach facadeConfig", name)
		}
	}
	return opts, cfg, nil
}

func openTraceDB(c *config, w *workloadSpec, g rdf.Graph, scale int, tmp string) (*traceDB, error) {
	t := &traceDB{}
	if w.Durable {
		t.dir = filepath.Join(tmp, "trace-"+w.Name)
		if err := os.MkdirAll(t.dir, 0o755); err != nil {
			return nil, err
		}
	}
	opts, cfg, err := facadeConfig(c.serverFlags(w, scale))
	if err != nil {
		return nil, err
	}
	t.opts, t.timeout = opts, cfg.QueryTimeout
	if t.dir != "" {
		opts = append(append([]rdfshapes.Option(nil), opts...), rdfshapes.WithDurability(t.dir))
	}
	if t.db, err = rdfshapes.Load(g, opts...); err != nil {
		return nil, err
	}
	t.handler = server.NewWithConfig(t.db, cfg)
	return t, nil
}

// source is the snapshot the facade would execute a query against.
func (t *traceDB) source() engine.Source {
	if g := t.db.Shards(); g != nil {
		return g.Snapshot()
	}
	return t.db.Live().Snapshot()
}

// estimatorFor applies the paper's Section 6.1 rule as the facade does:
// shape statistics when the query has a type-defined pattern.
func (t *traceDB) estimatorFor(q *sparql.Query) cardinality.Estimator {
	if shapes := t.db.Shapes(); q.HasTypePattern() && shapes.Annotated() {
		return cardinality.NewShapeEstimator(shapes, t.db.Stats())
	}
	return cardinality.NewGlobalEstimator(t.db.Stats())
}

// queryCtx gives a facade call the deadline the server's governor
// would, so the engine's cancellation checks run as they do when served.
func (t *traceDB) queryCtx() (context.Context, context.CancelFunc) {
	if t.timeout > 0 {
		return context.WithTimeout(context.Background(), t.timeout)
	}
	return context.WithCancel(context.Background())
}

// requestStats is what one traced request contributes besides spans.
type requestStats struct {
	bodyBytes    int
	rows         int64
	ops          int64
	intermediate int64
	merge        bool
	qerror       float64 // 0 when the run stopped early and has none
	driver       sparql.TriplePattern
	runNS, matNS int64
}

// traceRequest executes one query at every nesting depth — HTTP round
// trip, handler, facade, leaves — after an untimed facade call that
// warms the data the request touches, so no depth pays for cold caches.
func (t *traceDB) traceRequest(tr *tracer, client *httpClient, req int, text string) (requestStats, digest, error) {
	var st requestStats
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	facade := func() {
		ctx, cancel := t.queryCtx()
		defer cancel()
		_, err := t.db.QueryCtx(ctx, text)
		keep(err)
	}
	facade()

	var resp response
	l0 := tr.time("L0.http", -1, req, func() { resp = client.roundTrip(0, "/sparql", queryType, text) })
	obs := resp.observe(true)
	if obs.Outcome != outcomeOK {
		keep(fmt.Errorf("L0: %v (status %d): %s", obs.Outcome, resp.Status, text))
	}
	st.bodyBytes = obs.Bytes

	hreq := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(text))
	hreq.Header.Set("Content-Type", queryType)
	rec := httptest.NewRecorder()
	l1 := tr.time("L1.handler", l0, req, func() { t.handler.ServeHTTP(rec, hreq) })
	if rec.Code != http.StatusOK || rec.Body.Len() != obs.Bytes {
		keep(fmt.Errorf("L1 answered status %d with %d bytes, L0 read %d: %s", rec.Code, rec.Body.Len(), obs.Bytes, text))
	}

	l2 := tr.time("L2.facade", l1, req, facade)

	var q *sparql.Query
	tr.time("sparql.parse", l2, req, func() {
		var err error
		q, err = sparql.Parse(text)
		keep(err)
	})
	if q == nil {
		return st, obs.Digest, firstErr
	}
	src := t.source()
	est := t.estimatorFor(q)
	var plan *core.Plan
	tr.time("core.optimize", l2, req, func() { plan = core.Optimize(q, est) })
	if _, ok := src.(engine.OrderedSource); ok {
		tr.time("core.annotate", l2, req, func() {
			core.AnnotatePhysical(plan, core.LeadAvailableProbe, core.SourceLegRows(src))
		})
	}
	ctx, cancel := t.queryCtx()
	defer cancel()
	var report engine.ExecReport
	opts := engine.Options{
		Ctx: ctx, MaxOps: 50 << 20, Parallelism: t.db.Parallelism(),
		Filters: q.Filters, Optionals: q.Optionals, OptionalFilters: q.OptionalFilters,
		MergeWidth: plan.MergeWidth, MergeVar: plan.MergeVar,
		// The served DB always carries a collector, so the engine always
		// reports; the leaf pays the same clock reads.
		Observer: func(r engine.ExecReport) { report = r },
	}
	var er *engine.Result
	run := tr.time("engine.run", l2, req, func() {
		var err error
		er, err = engine.Run(src, plan.Order(), opts)
		keep(err)
	})
	if er == nil {
		return st, obs.Digest, firstErr
	}
	var rows []map[string]string
	mat := tr.time("engine.materialize", l2, req, func() {
		var err error
		rows, err = engine.Materialize(src, q, er)
		keep(err)
	})
	if len(rows) != obs.Digest.Rows {
		keep(fmt.Errorf("leaves produced %d rows, L0 returned %d: %s", len(rows), obs.Digest.Rows, text))
	}

	st.rows = int64(len(rows))
	st.ops = er.Ops
	for _, n := range er.Intermediate {
		st.intermediate += n
	}
	st.merge = er.MergeWidth > 1
	if n := len(report.Intermediate); n > 0 && n == len(plan.Steps) && !er.LimitHit && !er.Truncated && !er.TimedOut {
		st.qerror = cardinality.QError(plan.Steps[n-1].JoinEstimate, float64(report.Intermediate[n-1]))
	}
	st.driver = plan.Steps[0].Pattern
	st.runNS, st.matNS = int64(tr.dur(run)), int64(tr.dur(mat))
	return st, obs.Digest, firstErr
}

// resolve turns a pattern's constants into src's dictionary IDs; ok is
// false when a constant is unknown to src (the pattern matches nothing).
func resolve(src engine.Source, tp sparql.TriplePattern) (pat store.IDTriple, ok bool) {
	id := func(pt sparql.PatternTerm) (store.ID, bool) {
		if pt.IsVar() {
			return 0, true
		}
		return src.Dict().Lookup(pt.Term)
	}
	var okS, okP, okO bool
	pat.S, okS = id(tp.S)
	pat.P, okP = id(tp.P)
	pat.O, okO = id(tp.O)
	return pat, okS && okP && okO
}

// scanCost times Scan over the given driver patterns on one source and
// returns ns per row visited, and the rows.
func scanCost(src engine.Source, patterns []sparql.TriplePattern) (nsPerRow float64, rows int64) {
	var total time.Duration
	for _, tp := range patterns {
		pat, ok := resolve(src, tp)
		if !ok {
			continue
		}
		start := time.Now()
		src.Scan(pat, func(store.IDTriple) bool { rows++; return true })
		total += time.Since(start)
	}
	return float64(total) / float64(rows), rows
}

// timeSetup times the entry points a server start goes through, three
// times over, and returns the medians: set-up work a change moves out
// of the request path must show here.
func timeSetup(g rdf.Graph, shards int) (m map[string]float64, st *store.Store, err error) {
	samples := map[string][]float64{}
	timeIt := func(name string, fn func()) {
		start := time.Now()
		fn()
		samples[name] = append(samples[name], time.Since(start).Seconds())
	}
	for k := 0; k < 3 && err == nil; k++ {
		timeIt("setup.load_s", func() { st = store.Load(g) })
		timeIt("setup.gstats_s", func() { gstats.Compute(st) })
		shapes := lubm.Shapes()
		timeIt("setup.annotate_s", func() { err = annotator.Annotate(shapes, st) })
		if err != nil {
			break
		}
		timeIt("setup.shard_s", func() {
			var grp *shard.Group
			if grp, err = shard.New(st, shards, shapes); err == nil {
				grp.Close()
			}
		})
	}
	m = map[string]float64{}
	for name, xs := range samples {
		m[name] = median(xs)
	}
	return m, st, err
}

// batchOf parses an update's text into the live layer's batch form.
func batchOf(text string) (live.Batch, int, error) {
	req, err := sparql.ParseUpdate(text)
	if err != nil {
		return live.Batch{}, 0, err
	}
	var b live.Batch
	for _, op := range req.Ops {
		if op.Insert {
			b.Insert = append(b.Insert, op.Triples...)
		} else {
			b.Delete = append(b.Delete, op.Triples...)
		}
	}
	return b, len(b.Insert) + len(b.Delete), nil
}

const (
	traceShards  = 4  // the shard count of the joins-sharded configuration
	probeUpdates = 40 // updates the write-path probe applies to each DB
	maxScanPats  = 256
)

// traceRun is what the steps of one traced run share.
type traceRun struct {
	ctx  context.Context
	c    *config
	w    *workloadSpec
	opt  runOptions
	res  *runResult
	st   *store.Store // the set-up store: oracle, store scans, live.Apply
	or   *oracle
	ents entities
	// us is the one write stream of the run, used by churn's replay and
	// then by the probes, so that no two batches name the same student.
	us *updateStream
	// One DB per distinct server configuration: the traced workload's is
	// the subject of the replay, the others serve the layer probes.
	dbs                              map[string]*traceDB
	subject, plain, sharded, durable *traceDB

	drivers  []sparql.TriplePattern // the replay's distinct driver patterns
	updateMS []float64              // UpdateCtx on the durable configuration
}

func (t *traceRun) put(name, unit string, v float64, n int) {
	t.res.Metrics[name] = metricValue{v, unit, n}
}

// runTraced is the traced run of one workload: it replays a fixed
// prefix of the workload's stream sequentially on one goroutine, each
// request at every nesting depth, and then probes the layers no read
// request crosses. It never feeds the end-to-end metrics.
func runTraced(ctx context.Context, c *config, w *workloadSpec, opt runOptions) (*runResult, error) {
	t := &traceRun{ctx: ctx, c: c, w: w, opt: opt, dbs: map[string]*traceDB{}}
	t.res = &runResult{
		Workload: w.Name, Trace: true, Seed: opt.seed, Seconds: opt.seconds, Scale: opt.scale,
		ServerFlags: c.serverFlags(w, opt.scale), GOMAXPROCS: c.wl.GOMAXPROCS,
		RateQPS: w.RateQPS, Clients: 1,
		Metrics: map[string]metricValue{}, Diagnostics: map[string]metricValue{},
	}
	// The layers run in this process, so it takes the server's GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.wl.GOMAXPROCS))
	tmp := filepath.Join(c.outDir(), "tmp", fmt.Sprintf("trace-%s-%d", w.Name, os.Getpid()))
	defer os.RemoveAll(tmp)
	defer func() {
		for _, db := range t.dbs {
			db.db.Close()
		}
	}()

	g := generate(c, opt.scale)
	setup, st, err := timeSetup(g, traceShards)
	if err != nil {
		return nil, err
	}
	for name, v := range setup {
		t.put(name, "s", v, 3)
	}
	t.st, t.or = st, newOracle(st)
	depts, err := t.or.departments()
	if err != nil {
		return nil, err
	}
	t.ents = entities{Depts: depts, Universities: opt.scale}
	t.us = newUpdateStream(opt.seed, *churnUpdates(c), t.ents)

	tr := newTracer()
	for _, step := range []func() error{
		func() error { return t.openDBs(g, tmp) },
		func() error { return t.replay(tr) },
		t.probeWrites,
		t.probeScans,
		t.probeSharding,
		t.probeRecovery,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	t.res.Correct = t.res.Failed == 0
	return t.res, writeJSON(filepath.Join(c.outDir(), "trace.json"), struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.Name, opt.seed, tr.spans})
}

func (t *traceRun) openDBs(g rdf.Graph, tmp string) error {
	confKey := func(w *workloadSpec) string { return fmt.Sprint(w.ExtraFlags, w.Durable) }
	for i := range t.c.wl.Workloads {
		spec := &t.c.wl.Workloads[i]
		if t.dbs[confKey(spec)] != nil {
			continue
		}
		db, err := openTraceDB(t.c, spec, g, t.opt.scale, tmp)
		if err != nil {
			return err
		}
		t.dbs[confKey(spec)] = db
	}
	t.subject = t.dbs[confKey(t.w)]
	for name, db := range map[string]**traceDB{"joins": &t.plain, "joins-sharded": &t.sharded, "churn": &t.durable} {
		spec, err := t.c.workload(name)
		if err != nil {
			return err
		}
		*db = t.dbs[confKey(spec)]
	}
	if t.sharded.db.Shards() == nil || !t.durable.db.Durable() || t.plain.db.Shards() != nil || t.plain.db.Durable() {
		return fmt.Errorf("the layer probes need joins unsharded and not durable, joins-sharded sharded and churn durable")
	}
	return nil
}

// update applies the write stream's next op to each DB in turn, timing
// UpdateCtx, and checks the op's ASK on the first.
func (t *traceRun) update(dbs ...*traceDB) (ms []float64, triples int, err error) {
	op := t.us.next()
	for i, db := range dbs {
		start := time.Now()
		ur, err := db.db.UpdateCtx(t.ctx, op.Text)
		ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
		if err != nil {
			return nil, 0, err
		}
		if i == 0 {
			triples = ur.Inserted + ur.Deleted
		}
	}
	got, err := dbs[0].db.AskCtx(t.ctx, op.Ask)
	if err != nil {
		return nil, 0, err
	}
	t.res.Attempted++
	if got != op.Expect {
		t.res.fail("ASK after update answered %v, want %v: %s", got, op.Expect, op.Ask)
	}
	return ms, triples, nil
}

// replay executes the stream's prefix on the subject, request by
// request at every depth, and reports the request path's metrics. On
// churn the write stream is interleaved at its share of the request
// rate, each update once, through the facade.
func (t *traceRun) replay(tr *tracer) error {
	// L0 is a real HTTP round trip to an http.Server in this process.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: t.subject.handler}
	served := make(chan struct{})
	go func() { defer close(served); _ = hs.Serve(ln) }() // Serve always returns ErrServerClosed after Close
	defer func() { hs.Close(); <-served }()
	client := newHTTPClient(ln.Addr().String(), 1)
	defer client.close()

	w := t.w
	n := w.TraceRequests
	if t.opt.smoke {
		n = max(n/10, 10)
	}
	reqs := newReadStream(t.opt.seed, t.c.wl.Prefix, t.c.templatesOf(w), w.Zipf, w.Block, t.ents).take(n)
	updateEvery := 0
	if w.Updates != nil {
		updateEvery = max(int(w.RateQPS/w.Updates.RatePerS), 1)
	}

	var total requestStats
	var qerrs []float64
	merges := 0
	seen := map[string]bool{}
	for i, r := range reqs {
		if err := t.ctx.Err(); err != nil {
			return err
		}
		if updateEvery > 0 && i%updateEvery == 0 {
			ms, _, err := t.update(t.subject)
			if err != nil {
				return err
			}
			t.updateMS = append(t.updateMS, ms...)
		}
		s, got, err := t.subject.traceRequest(tr, client, i, r.Text)
		if err != nil {
			return err
		}
		want, err := t.or.answer(r.Text)
		if err != nil {
			return err
		}
		t.res.Attempted++
		t.res.checkAnswer(r, got, want, updateEvery > 0)

		total.bodyBytes += s.bodyBytes
		total.rows += s.rows
		total.ops += s.ops
		total.intermediate += s.intermediate
		total.runNS += s.runNS
		total.matNS += s.matNS
		if s.merge {
			merges++
		}
		if s.qerror > 0 {
			qerrs = append(qerrs, s.qerror)
		}
		if key := s.driver.String(); !seen[key] && len(t.drivers) < maxScanPats {
			seen[key] = true
			t.drivers = append(t.drivers, s.driver)
		}
	}

	self := tr.selfTimes()
	us50 := func(ds []time.Duration) float64 {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = float64(d) / float64(time.Microsecond)
		}
		return percentile(xs, 50)
	}
	var serverSelfNS time.Duration
	for _, d := range self["L1.handler"] {
		serverSelfNS += d
	}
	nreq, rows := float64(len(reqs)), float64(total.rows)
	t.put("wire.roundtrip_us_p50", "us", us50(tr.durations("L0.http")), len(reqs))
	t.put("wire.self_us_p50", "us", us50(self["L0.http"]), len(reqs))
	t.put("wire.body_bytes_per_req", "B", float64(total.bodyBytes)/nreq, len(reqs))
	t.put("server.self_us_p50", "us", us50(self["L1.handler"]), len(reqs))
	t.put("server.encode_ns_per_row", "ns", float64(serverSelfNS)/rows, int(total.rows))
	t.put("facade.self_us_p50", "us", us50(self["L2.facade"]), len(reqs))
	t.put("sparql.parse_us_p50", "us", us50(self["sparql.parse"]), len(reqs))
	t.put("core.optimize_us_p50", "us", us50(self["core.optimize"]), len(reqs))
	t.put("core.annotate_us_p50", "us", us50(self["core.annotate"]), len(self["core.annotate"]))
	t.put("core.merge_selected_share", "ratio", float64(merges)/nreq, len(reqs))
	t.put("cardinality.qerror_p50", "ratio", percentile(qerrs, 50), len(qerrs))
	t.put("cardinality.qerror_p95", "ratio", percentile(qerrs, 95), len(qerrs))
	t.put("cardinality.qerror_max", "ratio", percentile(qerrs, 100), len(qerrs))
	t.put("engine.run_ms_p50", "ms", us50(self["engine.run"])/1000, len(reqs))
	t.put("engine.ops_per_query", "count", float64(total.ops)/nreq, len(reqs))
	t.put("engine.intermediate_per_row", "ratio", float64(total.intermediate)/rows, int(total.rows))
	t.put("engine.ns_per_op", "ns", float64(total.runNS)/float64(total.ops), int(total.ops))
	t.put("engine.materialize_ns_per_row", "ns", float64(total.matNS)/rows, int(total.rows))
	t.put("facade.adaptive_templates", "count", float64(len(t.subject.db.AdaptiveTemplates())), 1)
	t.put("facade.adaptive_replans", "count", float64(t.subject.db.AdaptiveReplans()), 1)
	return nil
}

// probeWrites sends the same update sequence through the durable facade
// and the non-durable one — the difference is the WAL's — and times
// live.Apply alone on an overlay over the set-up store.
func (t *traceRun) probeWrites() error {
	walBefore, _ := t.durable.db.DurabilityStats()
	var durableMS, plainMS []float64
	triples := 0
	for k := 0; k < probeUpdates; k++ {
		ms, n, err := t.update(t.durable, t.plain)
		if err != nil {
			return err
		}
		durableMS, plainMS = append(durableMS, ms[0]), append(plainMS, ms[1])
		triples += n
	}
	walAfter, _ := t.durable.db.DurabilityStats()
	t.updateMS = append(t.updateMS, durableMS...)
	t.put("facade.update_ms_p50", "ms", percentile(t.updateMS, 50), len(t.updateMS))
	t.put("wal.append_ms_p50", "ms", percentile(durableMS, 50)-percentile(plainMS, 50), len(durableMS))
	t.put("wal.bytes_per_triple", "B", float64(walAfter.WALSizeBytes-walBefore.WALSizeBytes)/float64(triples), triples)
	added, deleted := t.durable.db.OverlaySize()
	t.put("live.overlay_triples", "count", float64(added+deleted), 1)

	ls := live.Wrap(t.st)
	defer ls.Close()
	// A stream of its own: these batches go to no DB the others went to.
	us := newUpdateStream(t.opt.seed, *churnUpdates(t.c), t.ents)
	var applyNS time.Duration
	applied := 0
	for k := 0; k < probeUpdates; k++ {
		b, n, err := batchOf(us.next().Text)
		if err != nil {
			return err
		}
		start := time.Now()
		ls.Apply(b)
		applyNS += time.Since(start)
		applied += n
	}
	t.put("live.apply_us_per_triple", "us", float64(applyNS)/float64(time.Microsecond)/float64(applied), applied)
	return nil
}

// probeScans scans the replay's driver patterns on the three sources: a
// frozen store, a live snapshot carrying the write probe's overlay, and
// the 4-way shard view.
func (t *traceRun) probeScans() error {
	v, rows := scanCost(t.st, t.drivers)
	t.put("store.scan_ns_per_row", "ns", v, int(rows))
	v, rows = scanCost(t.durable.source(), t.drivers)
	t.put("live.scan_ns_per_row", "ns", v, int(rows))
	grp := t.sharded.db.Shards()
	ownBefore, statsBefore := grp.Pruned()
	v, rows = scanCost(grp.Snapshot(), t.drivers)
	t.put("shard.scan_ns_per_row", "ns", v, int(rows))
	own, byStats := grp.Pruned()
	scans := len(t.drivers) * grp.N()
	t.put("shard.pruned_share", "ratio", float64(own-ownBefore+byStats-statsBefore)/float64(scans), scans)
	return nil
}

// probeSharding runs every joins template once, through the facade, on
// the sharded and the unsharded configuration.
func (t *traceRun) probeSharding() error {
	joins, err := t.c.workload("joins")
	if err != nil {
		return err
	}
	tmpls := t.c.templatesOf(joins)
	var plainNS, shardedNS time.Duration
	for _, r := range newReadStream(t.opt.seed, t.c.wl.Prefix, tmpls, 0, len(tmpls), t.ents).take(len(tmpls)) {
		for _, db := range []*traceDB{t.plain, t.sharded} {
			var d time.Duration
			for pass := 0; pass < 2; pass++ { // the second pass is timed
				qctx, cancel := db.queryCtx()
				start := time.Now()
				_, err := db.db.QueryCtx(qctx, r.Text)
				d = time.Since(start)
				cancel()
				if err != nil {
					return err
				}
			}
			if db == t.plain {
				plainNS += d
			} else {
				shardedNS += d
			}
		}
	}
	t.put("shard.overhead_share", "ratio", float64(shardedNS)/float64(plainNS)-1, len(tmpls))
	scanned := t.sharded.db.Shards().RowsScanned()
	var maxRows, sumRows float64
	for _, n := range scanned {
		sumRows += float64(n)
		maxRows = math.Max(maxRows, float64(n))
	}
	t.put("shard.rows_scanned_skew", "ratio", maxRows/(sumRows/float64(len(scanned))), len(scanned))
	return nil
}

// probeRecovery reopens the durable directory without a checkpoint, as
// a restart after a crash would; the last acknowledged batch must be
// there.
func (t *traceRun) probeRecovery() error {
	last := t.us.next()
	if _, err := t.durable.db.UpdateCtx(t.ctx, last.Text); err != nil {
		return err
	}
	if err := t.durable.db.Close(); err != nil {
		return err
	}
	start := time.Now()
	reopened, err := rdfshapes.Open(t.durable.dir, t.durable.opts...)
	if err != nil {
		return fmt.Errorf("recovering %s: %w", t.durable.dir, err)
	}
	t.put("wal.recover_s", "s", time.Since(start).Seconds(), 1)
	t.durable.db = reopened
	got, err := reopened.AskCtx(t.ctx, last.Ask)
	if err != nil {
		return err
	}
	t.res.Attempted++
	if got != last.Expect {
		t.res.fail("after recovery the last acknowledged batch is not readable: %s", last.Ask)
	}
	return nil
}

// churnUpdates is the write stream's specification, which the write
// path probes use whatever workload is traced.
func churnUpdates(c *config) *updateSpec {
	for _, w := range c.wl.Workloads {
		if w.Updates != nil {
			return w.Updates
		}
	}
	panic("benchmark: no workload in workloads.json has an updates section")
}
