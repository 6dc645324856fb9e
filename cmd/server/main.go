// Command server runs an HTTP SPARQL endpoint over a dataset: load
// N-Triples (or a binary snapshot) or generate a benchmark dataset, then
// serve /sparql, /update (SPARQL UPDATE with live statistics
// maintenance; see docs/LIVE_UPDATES.md), /explain, /shapes, /stats,
// /healthz, plus the observability surface /metrics (Prometheus text
// format) and /trace/recent (per-query traces with estimated vs. actual
// cardinalities; see docs/OBSERVABILITY.md).
//
// Requests run under a query governor (docs/RESILIENCE.md): at most
// -max-concurrent queries execute at once (overload answers 503 with
// Retry-After), each query is bounded by -query-timeout or a client
// timeout= parameter, and -max-rows/-max-intermediate budgets turn
// runaway result sets into marked partial responses. SIGINT/SIGTERM
// flips /readyz to 503, keeps the listener open for -drain-grace so load
// balancers deregister, drains in-flight requests, and — when a data
// directory is attached — checkpoints before exiting.
//
// With -data-dir the dataset is durable (docs/DURABILITY.md): every
// committed update is written to a checksummed write-ahead log before it
// is acknowledged (fsync policy under -fsync), POST /admin/checkpoint
// rotates the log into a fresh snapshot, and a restart recovers the
// directory — replaying the log and truncating any torn tail. An empty
// directory combined with -data/-dataset seeds it; a directory that
// already holds state is recovered, and the seed source is ignored.
//
// A durable server is also a replication primary (docs/REPLICATION.md):
// it serves its WAL at /repl/wal and its checkpoint snapshot at
// /repl/snapshot. With -replica-of the process is instead a read-only
// replica: it bootstraps from the primary's snapshot, tails its log
// (poll cadence under -replica-poll), serves reads with exact planner
// statistics, and answers /update with 403. With -router-primary the
// process is a read router: reads round-robin over the -router-replicas
// fleet, replicas beyond -max-staleness are ejected until they catch up,
// reads fail over to the primary, and writes always go to the primary.
//
//	server -dataset lubm -scale 1 -addr :8080
//	server -data graph.nt -data-dir /var/lib/rdfshapes -addr :8080
//	server -data-dir /var/lib/rdfshapes -fsync never
//	server -replica-of http://primary:8080 -addr :8081
//	server -router-primary http://primary:8080 -router-replicas http://r1:8081,http://r2:8082 -addr :8090
//	curl 'localhost:8080/sparql?query=SELECT...&timeout=500ms'
//	curl 'localhost:8080/update' -d 'update=INSERT DATA { <s> <p> <o> }'
//	curl -X POST 'localhost:8080/admin/checkpoint'
//	curl 'localhost:8080/repl/status'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rdfshapes"
	"rdfshapes/internal/datagen/lubm"
	"rdfshapes/internal/datagen/watdiv"
	"rdfshapes/internal/datagen/yago"
	"rdfshapes/internal/obsv"
	"rdfshapes/internal/repl"
	"rdfshapes/internal/server"
	"rdfshapes/internal/wal"
)

// options holds every flag value; registerFlags binds them so tests can
// drive run with a private FlagSet instead of process arguments.
type options struct {
	dataset, dataFile string
	scale             int
	seed              int64
	addr              string
	budget            int64
	tracebuf          int
	compactAt         int
	driftAt           int64
	adaptiveAt        float64
	maxConcurrent     int
	queueWait         time.Duration
	queryTimeout      time.Duration
	maxRows           int64
	maxIntermediate   int64
	drainTimeout      time.Duration
	drainGrace        time.Duration
	parallelism       int
	shards            int
	dataDir           string
	fsyncMode         string

	replicaOf   string
	replicaPoll time.Duration

	routerPrimary  string
	routerReplicas string
	maxStaleness   time.Duration
	checkInterval  time.Duration
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.dataset, "dataset", "", "generate a dataset: lubm, watdiv, or yago")
	fs.StringVar(&o.dataFile, "data", "", "load N-Triples data (or a .snap snapshot) from a file")
	fs.IntVar(&o.scale, "scale", 1, "generator scale")
	fs.Int64Var(&o.seed, "seed", 7, "generator seed")
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.Int64Var(&o.budget, "budget", 50<<20, "per-query operation budget (0 = unlimited)")
	fs.IntVar(&o.tracebuf, "tracebuf", obsv.DefaultRingSize, "query traces kept for /trace/recent")
	fs.IntVar(&o.compactAt, "compact-threshold", rdfshapes.DefaultCompactThreshold,
		"overlay size triggering background compaction (0 = never)")
	fs.Int64Var(&o.driftAt, "drift-threshold", rdfshapes.DefaultDriftThreshold,
		"statistics drift triggering background re-annotation (0 = never)")
	fs.Float64Var(&o.adaptiveAt, "adaptive-qerror", 0,
		"rolling q-error threshold past which a cached template plan is re-optimized against current statistics (<= 1 disables; see docs/PERFORMANCE.md)")
	fs.IntVar(&o.maxConcurrent, "max-concurrent", server.DefaultMaxConcurrent,
		"queries executing at once; excess requests wait -queue-wait then get 503 (<0 = unlimited)")
	fs.DurationVar(&o.queueWait, "queue-wait", server.DefaultQueueWait,
		"how long an arriving request waits for an execution slot before 503")
	fs.DurationVar(&o.queryTimeout, "query-timeout", 30*time.Second,
		"per-query deadline, and the ceiling for client timeout= parameters (0 = none)")
	fs.Int64Var(&o.maxRows, "max-rows", 0,
		"result-row budget per query; overruns return a partial result marked truncated (0 = unlimited)")
	fs.Int64Var(&o.maxIntermediate, "max-intermediate", 0,
		"intermediate-binding budget per query; overruns return a partial result marked truncated (0 = unlimited)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second,
		"how long shutdown waits for in-flight requests before giving up")
	fs.DurationVar(&o.drainGrace, "drain-grace", 0,
		"how long /readyz answers 503 with the listener still open before the drain starts, so load balancers deregister first")
	fs.IntVar(&o.parallelism, "parallelism", runtime.GOMAXPROCS(0),
		"workers per query BGP (1 = serial execution; see docs/PERFORMANCE.md)")
	fs.IntVar(&o.shards, "shards", 0,
		"partition the dataset into N subject-hash shards with per-shard statistics and statistics-driven shard pruning (<= 1 = unsharded; see docs/SHARDING.md)")
	fs.StringVar(&o.dataDir, "data-dir", "",
		"durability directory: WAL + snapshots; recovered on start, seeded from -data/-dataset when empty (see docs/DURABILITY.md)")
	fs.StringVar(&o.fsyncMode, "fsync", "always",
		"WAL sync policy: always (acknowledged commits survive crashes) or never (faster, may lose recent commits)")
	fs.StringVar(&o.replicaOf, "replica-of", "",
		"run as a read-only replica of the durable primary at this base URL (see docs/REPLICATION.md)")
	fs.DurationVar(&o.replicaPoll, "replica-poll", repl.DefaultPollInterval,
		"how often a replica polls the primary for new log records while healthy")
	fs.StringVar(&o.routerPrimary, "router-primary", "",
		"run as a read router in front of this primary base URL (reads spread over -router-replicas, writes go here)")
	fs.StringVar(&o.routerReplicas, "router-replicas", "",
		"comma-separated replica base URLs the router spreads reads over")
	fs.DurationVar(&o.maxStaleness, "max-staleness", repl.DefaultMaxStaleness,
		"router: eject a replica whose reported staleness exceeds this bound until it catches back up")
	fs.DurationVar(&o.checkInterval, "check-interval", repl.DefaultCheckInterval,
		"router: health-check cadence for /readyz + /repl/status probes")
	return o
}

func main() {
	opts := registerFlags(flag.CommandLine)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Restore default signal handling the moment the first signal
	// arrives, so a second signal kills immediately instead of waiting
	// out the drain.
	go func() { <-ctx.Done(); stop() }()
	if err := run(ctx, opts, nil); err != nil {
		log.Fatal("server: ", err)
	}
}

// run starts the configured process — SPARQL server, read replica, or
// read router — and blocks until ctx is canceled, then drains and shuts
// down cleanly. When started is non-nil it receives the bound listener
// address once serving (tests listen on :0 and read it back).
func run(ctx context.Context, opts *options, started chan<- string) error {
	if opts.routerPrimary != "" {
		return runRouter(ctx, opts, started)
	}
	db, err := openDB(opts)
	if err != nil {
		return err
	}
	if s, ok := db.DurabilityStats(); ok && s.Recovered {
		log.Printf("recovered %s: generation %d, %d WAL records replayed, %d torn tails truncated, %d snapshot fallbacks",
			opts.dataDir, s.Generation, s.RecordsReplayed, s.TornTruncations, s.SnapshotFallbacks)
	}

	db.SetCollector(obsv.NewCollector(opts.tracebuf))
	handler := server.NewWithConfig(db, server.Config{
		MaxConcurrent: opts.maxConcurrent,
		QueueWait:     opts.queueWait,
		QueryTimeout:  opts.queryTimeout,
	})
	srv := newHTTPServer(handler)
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		db.Close()
		return err
	}
	if started != nil {
		started <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	role := "primary"
	if db.Replica() {
		role = fmt.Sprintf("replica of %s", db.ReplicaPrimary())
	}
	log.Printf("serving %d triples (%d node shapes) on %s as %s (updates at /update, metrics at /metrics, traces at /trace/recent)",
		db.NumTriples(), db.Shapes().Len(), ln.Addr(), role)

	select {
	case err := <-errc:
		db.Close()
		return err
	case <-ctx.Done():
	}
	// Shutdown order: stop advertising readiness first, hold the
	// listener open for the grace period so load balancers observe the
	// 503 and deregister, then drain in-flight requests, then checkpoint
	// so the snapshot includes every acknowledged commit and the next
	// start replays an empty log.
	handler.SetReady(false)
	log.Printf("shutting down: /readyz now 503, draining in-flight requests (grace %v, up to %v)",
		opts.drainGrace, opts.drainTimeout)
	if opts.drainGrace > 0 {
		time.Sleep(opts.drainGrace)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("server: shutdown: %v", err)
	}
	if db.Durable() {
		if st, err := db.Checkpoint(); err != nil {
			log.Printf("server: final checkpoint: %v", err)
		} else {
			log.Printf("checkpointed generation %d (%d triples) in %v", st.Generation, st.Triples, st.Duration)
		}
	}
	if err := db.Close(); err != nil {
		log.Printf("server: close: %v", err)
	}
	log.Print("server: stopped")
	return nil
}

// newHTTPServer is the single place this binary constructs an
// http.Server, so every listener — SPARQL server, replica, router —
// carries the same slow-loris protections: ReadHeaderTimeout bounds how
// long a client may dribble request headers, IdleTimeout reclaims
// keep-alive connections. No WriteTimeout: large CONSTRUCT/stats
// exports stream for longer than any sensible constant; query execution
// itself is already bounded by -query-timeout.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// runRouter serves the health-checked read router: no local dataset,
// just repl.Router in front of the primary and its replicas, plus the
// router's own metrics at /router/metrics (plain /metrics is a read and
// proxies to a backend like any other).
func runRouter(ctx context.Context, opts *options, started chan<- string) error {
	var replicas []string
	for _, r := range strings.Split(opts.routerReplicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			replicas = append(replicas, r)
		}
	}
	rt, err := repl.NewRouter(repl.RouterConfig{
		Primary:       opts.routerPrimary,
		Replicas:      replicas,
		MaxStaleness:  opts.maxStaleness,
		CheckInterval: opts.checkInterval,
		Logf:          log.Printf,
	})
	if err != nil {
		return err
	}
	collector := obsv.NewCollector(0)
	counter := func(name, help string, read func(repl.RouterStatus) int64) *obsv.Func {
		return obsv.NewFunc(name, help, obsv.Counter, "",
			obsv.Value(func() float64 { return float64(read(rt.Status())) }))
	}
	collector.Register(
		counter("rdfshapes_router_ejections_total",
			"Backends ejected from read routing (unready, unreachable, or beyond the staleness bound).",
			func(s repl.RouterStatus) int64 { return s.Ejections }),
		counter("rdfshapes_router_stale_reads_total",
			"Reads served from a replica beyond the staleness bound, marked with the X-Repl-Stale header.",
			func(s repl.RouterStatus) int64 { return s.StaleReads }),
		counter("rdfshapes_router_primary_reads_total",
			"Reads routed to the primary (failover or no healthy replica).",
			func(s repl.RouterStatus) int64 { return s.PrimaryReads }),
		counter("rdfshapes_router_replica_reads_total",
			"Reads routed to healthy replicas.",
			func(s repl.RouterStatus) int64 { return s.ReplicaReads }),
	)
	mux := http.NewServeMux()
	mux.HandleFunc("/router/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = collector.WritePrometheus(w)
	})
	mux.Handle("/", rt)

	checkCtx, stopChecks := context.WithCancel(context.Background())
	defer stopChecks()
	go func() { _ = rt.Run(checkCtx) }()

	srv := newHTTPServer(mux)
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	if started != nil {
		started <- ln.Addr().String()
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("routing reads over %d replicas (primary %s, max staleness %v) on %s",
		len(replicas), opts.routerPrimary, opts.maxStaleness, ln.Addr())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("server: router shutdown: %v", err)
	}
	log.Print("server: router stopped")
	return nil
}

// openDB builds the DB for the configured role: a replica bootstraps
// from its primary; everything else loads or recovers local data.
func openDB(opts *options) (*rdfshapes.DB, error) {
	syncPolicy, err := rdfshapes.ParseSyncPolicy(opts.fsyncMode)
	if err != nil {
		return nil, err
	}
	baseOpts := []rdfshapes.Option{
		rdfshapes.WithOpsBudget(opts.budget),
		rdfshapes.WithAutoCompact(opts.compactAt),
		rdfshapes.WithDriftThreshold(opts.driftAt),
		rdfshapes.WithAdaptiveReplan(opts.adaptiveAt),
		rdfshapes.WithLimits(rdfshapes.Limits{MaxRows: opts.maxRows, MaxIntermediate: opts.maxIntermediate}),
		rdfshapes.WithParallelism(opts.parallelism),
	}
	if opts.replicaOf != "" {
		switch {
		case opts.dataDir != "":
			return nil, fmt.Errorf("-replica-of is incompatible with -data-dir: a replica's durable state is the primary's")
		case opts.dataFile != "" || opts.dataset != "":
			return nil, fmt.Errorf("-replica-of is incompatible with -data/-dataset: a replica bootstraps from its primary")
		case opts.shards > 1:
			return nil, fmt.Errorf("-replica-of is incompatible with -shards")
		}
		return rdfshapes.OpenReplica(opts.replicaOf,
			append(baseOpts, rdfshapes.WithReplicaPollInterval(opts.replicaPoll))...)
	}
	localOpts := append(baseOpts,
		rdfshapes.WithShards(opts.shards),
		rdfshapes.WithSyncPolicy(syncPolicy))
	if opts.dataDir != "" {
		has, err := wal.HasState(opts.dataDir, nil)
		if err != nil {
			return nil, err
		}
		if has || (opts.dataFile == "" && opts.dataset == "") {
			// Existing state wins over any seed source: silently
			// re-seeding a live directory would shadow durable data.
			if opts.dataFile != "" || opts.dataset != "" {
				log.Printf("%s already holds durable state; recovering it and ignoring the seed source", opts.dataDir)
			}
			return rdfshapes.Open(opts.dataDir, localOpts...)
		}
		// Empty directory with a seed source: load it and attach
		// durability, writing the loaded dataset as generation one.
		localOpts = append(localOpts, rdfshapes.WithDurability(opts.dataDir))
	}
	if opts.dataFile != "" {
		f, err := os.Open(opts.dataFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(opts.dataFile, ".snap") {
			return rdfshapes.LoadSnapshot(f, localOpts...)
		}
		return rdfshapes.LoadNTriples(f, localOpts...)
	}
	switch opts.dataset {
	case "lubm":
		return rdfshapes.Load(lubm.Generate(lubm.Config{Universities: opts.scale, Seed: opts.seed}),
			append(localOpts, rdfshapes.WithShapesGraph(lubm.Shapes()))...)
	case "watdiv":
		return rdfshapes.Load(watdiv.Generate(watdiv.Config{Products: opts.scale * 1000, Seed: opts.seed}),
			append(localOpts, rdfshapes.WithShapesGraph(watdiv.Shapes()))...)
	case "yago":
		return rdfshapes.Load(yago.Generate(yago.Config{Entities: opts.scale * 1000, Seed: opts.seed}), localOpts...)
	case "":
		return nil, fmt.Errorf("either -dataset, -data, -data-dir, -replica-of, or -router-primary is required")
	default:
		return nil, fmt.Errorf("unknown dataset %q", opts.dataset)
	}
}
