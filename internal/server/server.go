// Package server exposes a DB over HTTP: a SPARQL 1.1 Protocol endpoint
// with SPARQL 1.1 Query Results JSON serialization, endpoints for the
// paper's artifacts (the annotated SHACL shapes graph, the extended-VoID
// global statistics, and GS-vs-SS query plans), and the observability
// surface that makes the paper's evaluation quantities — estimated vs.
// actual join cardinalities, q-error, runtime under a budget —
// continuously visible in production.
//
//	GET/POST /sparql?query=...   SELECT/ASK results as application/sparql-results+json
//	POST     /update             SPARQL UPDATE (INSERT DATA / DELETE DATA), JSON ack
//	GET      /explain?query=...  the SS and GS query plans as text
//	GET      /shapes             annotated SHACL shapes graph as Turtle
//	GET      /stats              extended-VoID statistics as N-Triples
//	GET      /healthz            liveness and dataset size
//	GET      /readyz             readiness: 200 after recovery, 503 while draining
//	POST     /admin/checkpoint   snapshot + WAL rotation; 409 when not durable
//	GET      /metrics            cumulative counters/histograms, Prometheus text format
//	GET      /trace/recent?n=N   the last N query traces as JSON
//	GET      /repl/wal           WAL log-shipping stream (durable primaries)
//	GET      /repl/snapshot      checkpoint snapshot for replica bootstrap
//	GET      /repl/status        replication role, cursor, lag, staleness
//
// A durable DB additionally serves the replication-primary endpoints; a
// replica (rdfshapes.OpenReplica) serves its follower status and answers
// /update with 403 — writes belong on the primary. A WAL-poisoned
// primary refuses writes with 503 + Retry-After until a checkpoint
// clears the poison (docs/REPLICATION.md, docs/DURABILITY.md).
//
// Requests with an unsupported method receive 405 Method Not Allowed
// with an Allow header listing the supported methods.
//
// The query endpoints (/sparql, /update, /explain) run under a governor:
// an admission semaphore bounds concurrent executions (excess requests
// wait up to Config.QueueWait, then receive 503 with Retry-After), each
// request carries a deadline from Config.QueryTimeout or a client
// timeout= parameter (clamped to the server ceiling), and a disconnecting
// client cancels its query through the request context. A panic in any
// handler is recovered to a 500 and counted. docs/RESILIENCE.md documents
// the governor; docs/OBSERVABILITY.md the metrics.
//
// New installs an obsv.Collector on the DB when none is present, so
// every served query is traced by default.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rdfshapes"
	"rdfshapes/internal/obsv"
	"rdfshapes/internal/rdf"
	"rdfshapes/internal/repl"
	"rdfshapes/internal/store"
)

// Governor metric names, exported alongside the obsv package's inventory.
const (
	MetricInFlight            = "rdfshapes_http_in_flight_queries"
	MetricAdmissionRejected   = "rdfshapes_admission_rejected_total"
	MetricQueryTimeouts       = "rdfshapes_query_timeouts_total"
	MetricClientCancellations = "rdfshapes_client_cancellations_total"
	MetricResultTruncations   = "rdfshapes_result_truncations_total"
	MetricPanicsRecovered     = "rdfshapes_panics_recovered_total"
)

// Defaults for Config zero values.
const (
	DefaultMaxConcurrent = 64
	DefaultQueueWait     = 100 * time.Millisecond
)

// statusClientClosedRequest is the de-facto status (nginx's 499) logged
// when the client went away before the response; the client never sees
// it, but it keeps access logs and tests honest about why the request
// ended.
const statusClientClosedRequest = 499

// Config tunes the query governor.
type Config struct {
	// MaxConcurrent caps queries executing at once across /sparql,
	// /update, and /explain. 0 selects DefaultMaxConcurrent; negative
	// disables admission control.
	MaxConcurrent int
	// QueueWait bounds how long an arriving request waits for an
	// execution slot before being rejected with 503. 0 selects
	// DefaultQueueWait.
	QueueWait time.Duration
	// QueryTimeout is the per-request deadline, and the ceiling a client
	// timeout= parameter is clamped to. 0 means no server-imposed
	// deadline (clients may still set their own).
	QueryTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = DefaultMaxConcurrent
	}
	if c.QueueWait == 0 {
		c.QueueWait = DefaultQueueWait
	}
	return c
}

// Handler routes the endpoints over a DB.
type Handler struct {
	db  *rdfshapes.DB
	obs *obsv.Collector
	mux *http.ServeMux
	cfg Config
	sem chan struct{} // admission semaphore; nil when disabled

	// ready gates /readyz: set true once construction (and therefore any
	// durability recovery) is complete, set false by SetReady(false) when
	// the server starts draining, so load balancers stop routing before
	// in-flight queries are waited out.
	ready atomic.Bool

	// terms caches encoded SPARQL-JSON terms across responses; it is
	// created by the first answer and replaced if an answer arrives from
	// another dictionary.
	terms atomic.Pointer[termCache]

	inFlight    atomic.Int64
	rejections  *obsv.CounterVec
	timeouts    *obsv.CounterVec
	cancels     *obsv.CounterVec
	truncations *obsv.CounterVec
	panics      *obsv.CounterVec
	checkpoints *obsv.HistogramVec // durable DBs only; observed by /admin/checkpoint
}

// New returns an http.Handler serving db under the default governor
// configuration. When db has no observability collector yet, a default
// one (DefaultRingSize traces) is installed so the /metrics and
// /trace/recent endpoints are live out of the box.
func New(db *rdfshapes.DB) *Handler { return NewWithConfig(db, Config{}) }

// NewWithConfig returns an http.Handler serving db under cfg.
func NewWithConfig(db *rdfshapes.DB, cfg Config) *Handler {
	if db.Collector() == nil {
		db.SetCollector(obsv.NewCollector(0))
	}
	cfg = cfg.withDefaults()
	h := &Handler{db: db, obs: db.Collector(), mux: http.NewServeMux(), cfg: cfg}
	if cfg.MaxConcurrent > 0 {
		h.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	h.register()
	h.mux.HandleFunc("/sparql", h.govern(h.sparql))
	h.mux.HandleFunc("/update", h.govern(h.update))
	h.mux.HandleFunc("/explain", h.govern(h.explain))
	h.mux.HandleFunc("/shapes", h.shapes)
	h.mux.HandleFunc("/stats", h.stats)
	h.mux.HandleFunc("/healthz", h.healthz)
	h.mux.HandleFunc("/readyz", h.readyz)
	h.mux.HandleFunc("/admin/checkpoint", h.adminCheckpoint)
	h.mux.HandleFunc("/metrics", h.metrics)
	h.mux.HandleFunc("/trace/recent", h.traceRecent)
	if db.Durable() {
		// Log-shipping endpoints: a durable DB is a replication primary
		// replicas can bootstrap from and tail.
		pr := repl.NewPrimary(db.WAL())
		h.mux.HandleFunc(repl.WALPath, pr.ServeWAL)
		h.mux.HandleFunc(repl.SnapshotPath, pr.ServeSnapshot)
	}
	if db.Durable() || db.Replica() {
		h.mux.HandleFunc(repl.StatusPath, h.replStatus)
	}
	h.ready.Store(true)
	return h
}

// checkpointBuckets are the checkpoint-latency histogram upper bounds in
// seconds: a checkpoint writes a full snapshot, so the range sits well
// above query latencies.
var checkpointBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// register adds the server's families to the collector: the governor's
// counters and the checkpoint histogram, which count events only the
// handler sees, and scrape-time families that read every other count
// from the component that keeps it. docs/OBSERVABILITY.md lists them all.
func (h *Handler) register() {
	db := h.db
	gauge := func(name, help string, read func() float64) *obsv.Func {
		return obsv.NewFunc(name, help, obsv.Gauge, "", obsv.Value(read))
	}
	counter := func(name, help string, read func() float64) *obsv.Func {
		return obsv.NewFunc(name, help, obsv.Counter, "", obsv.Value(read))
	}
	h.rejections = obsv.NewCounterVec(MetricAdmissionRejected,
		"Requests rejected with 503 because no execution slot freed up within the queue wait.")
	h.timeouts = obsv.NewCounterVec(MetricQueryTimeouts,
		"Queries terminated by the per-request deadline (504).")
	h.cancels = obsv.NewCounterVec(MetricClientCancellations,
		"Queries abandoned because the client disconnected mid-execution or while its answer was being written.")
	h.truncations = obsv.NewCounterVec(MetricResultTruncations,
		"Query responses truncated by an intermediate- or row-budget (served with truncated=true).")
	h.panics = obsv.NewCounterVec(MetricPanicsRecovered,
		"Handler panics recovered to a 500 response.")
	h.obs.Register(h.rejections, h.timeouts, h.cancels, h.truncations, h.panics,
		gauge(MetricInFlight, "Governed HTTP queries currently executing.",
			func() float64 { return float64(h.inFlight.Load()) }),
		gauge("rdfshapes_dataset_triples", "Triples in the served dataset.",
			func() float64 { return float64(db.NumTriples()) }),
		gauge("rdfshapes_dataset_node_shapes", "Node shapes in the annotated shapes graph.",
			func() float64 { return float64(db.Shapes().Len()) }),
		gauge("rdfshapes_dataset_property_shapes", "Property shapes in the annotated shapes graph.",
			func() float64 { return float64(db.Shapes().PropertyShapeCount()) }),
		gauge("rdfshapes_trace_buffer_capacity", "Capacity of the in-memory query trace ring buffer.",
			func() float64 { return float64(h.obs.RingSize()) }),
		gauge("rdfshapes_stats_drift", "Approximation drift accumulated in the planner statistics since the last re-annotation.",
			func() float64 { return float64(db.StatsDrift()) }),
		gauge("rdfshapes_overlay_added_triples", "Triples in the live overlay's added fragment, pending compaction.",
			func() float64 { a, _ := db.OverlaySize(); return float64(a) }),
		gauge("rdfshapes_overlay_deleted_triples", "Base triples marked deleted in the live overlay, pending compaction.",
			func() float64 { _, d := db.OverlaySize(); return float64(d) }),
		gauge("rdfshapes_updates_applied", "SPARQL UPDATE requests committed since startup.",
			func() float64 { return float64(db.UpdatesApplied()) }),
		gauge("rdfshapes_term_cache_terms", "Dictionary terms whose SPARQL-JSON encoding the /sparql writer has cached (at most one per term).",
			func() float64 {
				if c := h.terms.Load(); c != nil {
					return float64(c.terms.Load())
				}
				return 0
			}),
		gauge("rdfshapes_term_cache_bytes", "Bytes of cached SPARQL-JSON term encodings held by the /sparql writer.",
			func() float64 {
				if c := h.terms.Load(); c != nil {
					return float64(c.bytes.Load())
				}
				return 0
			}),
		gauge("rdfshapes_parallelism", "Configured per-query BGP worker count (1 = serial execution).",
			func() float64 { return float64(db.Parallelism()) }),
		gauge("rdfshapes_parallel_workers_active", "Parallel BGP worker goroutines executing at scrape time.",
			func() float64 { return float64(rdfshapes.ActiveParallelWorkers()) }),
	)
	if db.AdaptiveEnabled() {
		perTemplate := func(value func(rdfshapes.TemplateStat) (float64, bool)) func() map[string]float64 {
			return func() map[string]float64 {
				out := map[string]float64{}
				for _, st := range db.AdaptiveTemplates() {
					if v, ok := value(st); ok {
						out[st.Template] = v
					}
				}
				return out
			}
		}
		h.obs.Register(
			gauge("rdfshapes_adaptive_templates", "Query templates tracked by the adaptive replan layer.",
				func() float64 { return float64(len(db.AdaptiveTemplates())) }),
			counter("rdfshapes_adaptive_overflow_total", "Queries planned uncached because the adaptive replan layer already tracked its maximum number of templates.",
				func() float64 { return float64(db.AdaptiveOverflow()) }),
			obsv.NewFunc("rdfshapes_adaptive_replans_total",
				"Cached template plans invalidated because their rolling observed q-error crossed the adaptive replan threshold.",
				obsv.Counter, "template",
				perTemplate(func(st rdfshapes.TemplateStat) (float64, bool) { return float64(st.Replans), st.Replans > 0 })),
			obsv.NewFunc("rdfshapes_template_qerror",
				"Rolling median observed q-error per query template (complete executions since the template's last replan).",
				obsv.Gauge, "template",
				perTemplate(func(st rdfshapes.TemplateStat) (float64, bool) { return st.QError, st.Observations > 0 })),
		)
	}
	if db.Sharded() > 0 {
		h.obs.Register(
			gauge("rdfshapes_shards", "Configured shard count (subject-hash partitions).",
				func() float64 { return float64(db.Sharded()) }),
			obsv.NewFunc("rdfshapes_shard_rows_scanned_total",
				"Index rows scanned per shard through cross-shard query execution (deletion-masked rows included).",
				obsv.Counter, "shard",
				func() map[string]float64 {
					out := map[string]float64{}
					for i, n := range db.Shards().RowsScanned() {
						out[strconv.Itoa(i)] = float64(n)
					}
					return out
				}),
			obsv.NewFunc("rdfshapes_shards_pruned_total",
				"Per-pattern shard scans skipped, by reason: ownership (a bound subject routes to its hash owner alone) or stats (the shard's exact statistics prove the pattern empty there).",
				obsv.Counter, "reason",
				func() map[string]float64 {
					own, stats := db.Shards().Pruned()
					return map[string]float64{"ownership": float64(own), "stats": float64(stats)}
				}),
		)
	}
	if db.Durable() {
		durable := func() rdfshapes.DurabilityStats { s, _ := db.DurabilityStats(); return s }
		h.checkpoints = obsv.NewHistogramVec("rdfshapes_checkpoint_duration_seconds",
			"Checkpoint wall time in seconds (snapshot write, fsyncs, and log rotation).", checkpointBuckets)
		h.obs.Register(h.checkpoints,
			gauge("rdfshapes_wal_size_bytes", "Active write-ahead log file size in bytes, header included.",
				func() float64 { return float64(durable().WALSizeBytes) }),
			gauge("rdfshapes_wal_generation", "Current snapshot/WAL generation number.",
				func() float64 { return float64(durable().Generation) }),
			gauge("rdfshapes_wal_failed", "1 while the WAL is poisoned (updates refused until a checkpoint succeeds), else 0.",
				func() float64 { return bit(durable().Failed) }),
			counter("rdfshapes_checkpoints_total", "Checkpoints completed.",
				func() float64 { return float64(durable().Checkpoints) }),
			counter("rdfshapes_recoveries_total", "Times a durable data directory with existing state was recovered at open.",
				func() float64 { return bit(durable().Recovered) }),
			counter("rdfshapes_wal_records_replayed_total", "WAL records replayed over the recovered snapshot at open.",
				func() float64 { return float64(durable().RecordsReplayed) }),
			counter("rdfshapes_wal_torn_truncations_total", "Torn or corrupt WAL tails truncated during recovery.",
				func() float64 { return float64(durable().TornTruncations) }),
			counter("rdfshapes_snapshot_fallbacks_total", "Corrupt snapshots skipped during recovery in favor of an older generation.",
				func() float64 { return float64(durable().SnapshotFallbacks) }),
		)
	}
	if db.Replica() {
		replica := func() repl.StatusResponse { s, _ := db.ReplicaStatus(); return s }
		h.obs.Register(
			gauge("rdfshapes_repl_lag_records", "Log records the replica is behind the primary as of the last poll.",
				func() float64 { return float64(replica().LagRecords) }),
			gauge("rdfshapes_repl_staleness_seconds", "Seconds since the replica last observed itself fully caught up.",
				func() float64 { return replica().StalenessSeconds }),
			gauge("rdfshapes_repl_connected", "1 while the last exchange with the primary succeeded, else 0.",
				func() float64 { return bit(replica().Connected) }),
			counter("rdfshapes_repl_records_applied_total", "Shipped WAL records applied since the replica started.",
				func() float64 { return float64(replica().RecordsApplied) }),
			counter("rdfshapes_repl_reconnects_total", "Times the follower lost its connection to the primary and reconnected with backoff.",
				func() float64 { return float64(replica().Reconnects) }),
			counter("rdfshapes_repl_bootstraps_total", "Times the replica re-bootstrapped from a fresh primary snapshot (pruned generation or diverged primary).",
				func() float64 { return float64(replica().Bootstraps) }),
			counter("rdfshapes_repl_torn_streams_total", "Log streams that arrived torn mid-record; the intact prefix was applied and the rest re-requested.",
				func() float64 { return float64(replica().TornStreams) }),
		)
	}
}

// bit renders a boolean as a 0/1 sample.
func bit(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// SetReady flips the /readyz readiness gate. The server process sets it
// false when it begins draining (SIGTERM), so orchestrators stop routing
// new traffic while in-flight requests finish; /healthz stays green the
// whole time (the process is alive, just not accepting work).
func (h *Handler) SetReady(ready bool) { h.ready.Store(ready) }

// allow enforces the supported methods for a handler. When the request
// method is not listed it writes 405 Method Not Allowed with an Allow
// header and returns false.
func allow(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	http.Error(w, fmt.Sprintf("method %s not allowed", r.Method), http.StatusMethodNotAllowed)
	return false
}

// ServeHTTP implements http.Handler. Panics escape handlers only as
// http.ErrAbortHandler (net/http's deliberate connection-abort signal);
// anything else becomes a counted 500 so one bad request cannot take the
// connection's served state down with it.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			if p == http.ErrAbortHandler {
				panic(p)
			}
			h.panics.Add(1)
			http.Error(w, "internal server error", http.StatusInternalServerError)
		}
	}()
	h.mux.ServeHTTP(w, r)
}

// govern wraps a query handler with admission control and the
// per-request deadline. Rejection paths respond before any query work
// starts, so a saturated server stays cheap to say no with.
func (h *Handler) govern(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if h.sem != nil {
			select {
			case h.sem <- struct{}{}:
			default:
				timer := time.NewTimer(h.cfg.QueueWait)
				select {
				case h.sem <- struct{}{}:
					timer.Stop()
				case <-timer.C:
					h.rejections.Add(1)
					w.Header().Set("Retry-After", "1")
					http.Error(w, "server at capacity, retry later", http.StatusServiceUnavailable)
					return
				case <-r.Context().Done():
					timer.Stop()
					h.cancels.Add(1)
					http.Error(w, "client closed request", statusClientClosedRequest)
					return
				}
			}
			defer func() { <-h.sem }()
		}
		h.inFlight.Add(1)
		defer h.inFlight.Add(-1)

		timeout, err := requestTimeout(r, h.cfg.QueryTimeout)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next(w, r)
	}
}

// requestTimeout resolves the deadline for one request: the client's
// timeout= parameter when present (clamped to the server ceiling),
// otherwise the ceiling itself. 0 means no deadline.
func requestTimeout(r *http.Request, ceiling time.Duration) (time.Duration, error) {
	s := r.URL.Query().Get("timeout")
	if s == "" {
		return ceiling, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("invalid 'timeout' parameter %q (want a positive Go duration, e.g. 500ms)", s)
	}
	if ceiling > 0 && d > ceiling {
		d = ceiling
	}
	return d, nil
}

// queryError maps a query execution error onto the HTTP status that
// tells the client what actually happened: 504 for a deadline, the
// 499 convention for a client that went away, 503 for a server that is
// draining, 400 for everything else (parse errors, unsupported
// features, the legacy ops budget).
func (h *Handler) queryError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, rdfshapes.ErrDeadline):
		// The deadline may be the client's own; only a genuinely gone
		// client is a cancellation, everything else is a timeout.
		h.timeouts.Add(1)
		http.Error(w, "query deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, rdfshapes.ErrCanceled):
		h.cancels.Add(1)
		http.Error(w, "client closed request", statusClientClosedRequest)
	case errors.Is(err, rdfshapes.ErrClosed):
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
	case errors.Is(err, rdfshapes.ErrWALFailed):
		// A poisoned WAL is a transient server condition — the data
		// directory may recover and a checkpoint clears the poison — so
		// the client should retry, not treat its request as malformed.
		w.Header().Set("Retry-After", "5")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, rdfshapes.ErrReadOnlyReplica):
		http.Error(w, err.Error(), http.StatusForbidden)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// maxBodyBytes caps raw POST bodies. A body exceeding it is rejected
// with 413 rather than truncated: a truncation landing on an operation
// boundary would silently apply a partial update.
const maxBodyBytes = 1 << 20

// errBodyTooLarge marks a rejected oversized body; handlers map it to
// 413 Request Entity Too Large via errorStatus.
var errBodyTooLarge = fmt.Errorf("request body exceeds %d bytes", maxBodyBytes)

// readBody reads a raw POST body up to maxBodyBytes, returning
// errBodyTooLarge when the body is bigger. The read honors the request
// context, so a client that disconnected (or a request whose deadline
// passed) stops being read mid-body instead of at the next TCP stall.
func readBody(r *http.Request) ([]byte, error) {
	type readResult struct {
		body []byte
		err  error
	}
	ch := make(chan readResult, 1)
	go func() {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
		ch <- readResult{body, err}
	}()
	select {
	case res := <-ch:
		if res.err != nil {
			return nil, res.err
		}
		if len(res.body) > maxBodyBytes {
			return nil, errBodyTooLarge
		}
		return res.body, nil
	case <-r.Context().Done():
		// net/http closes the body when the request ends, which unblocks
		// the reader goroutine shortly after.
		return nil, r.Context().Err()
	}
}

// errorStatus picks the HTTP status for a request-extraction error.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, errBodyTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	}
	return http.StatusBadRequest
}

// formBody parses an application/x-www-form-urlencoded POST body via
// readBody, so body reads stay context-aware (ParseForm would not be).
func formBody(r *http.Request) (url.Values, error) {
	body, err := readBody(r)
	if err != nil {
		return nil, err
	}
	return url.ParseQuery(string(body))
}

// queryParam extracts the SPARQL query from a GET parameter, a form
// field, or a raw application/sparql-query POST body.
func queryParam(r *http.Request) (string, error) {
	if q := r.URL.Query().Get("query"); q != "" {
		return q, nil
	}
	if r.Method == http.MethodPost {
		ct := r.Header.Get("Content-Type")
		if strings.HasPrefix(ct, "application/sparql-query") {
			body, err := readBody(r)
			if err != nil {
				return "", err
			}
			if len(body) == 0 {
				return "", fmt.Errorf("empty request body")
			}
			return string(body), nil
		}
		form, err := formBody(r)
		if err != nil {
			return "", err
		}
		if q := form.Get("query"); q != "" {
			return q, nil
		}
	}
	return "", fmt.Errorf("missing 'query' parameter")
}

// updateParam extracts the SPARQL UPDATE request from a form field or a
// raw application/sparql-update POST body, per the SPARQL 1.1 Protocol.
func updateParam(r *http.Request) (string, error) {
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/sparql-update") {
		body, err := readBody(r)
		if err != nil {
			return "", err
		}
		if len(body) == 0 {
			return "", fmt.Errorf("empty request body")
		}
		return string(body), nil
	}
	form, err := formBody(r)
	if err != nil {
		return "", err
	}
	if u := form.Get("update"); u != "" {
		return u, nil
	}
	return "", fmt.Errorf("missing 'update' parameter")
}

// update applies a SPARQL UPDATE request (INSERT DATA / DELETE DATA)
// and acknowledges with the committed triple counts as JSON.
func (h *Handler) update(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	src, err := updateParam(r)
	if err != nil {
		http.Error(w, err.Error(), errorStatus(err))
		return
	}
	res, err := h.db.UpdateCtx(r.Context(), src)
	if err != nil {
		h.queryError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"inserted":%d,"deleted":%d}`+"\n", res.Inserted, res.Deleted)
}

func (h *Handler) sparql(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	src, err := queryParam(r)
	if err != nil {
		http.Error(w, err.Error(), errorStatus(err))
		return
	}
	// One parse decides the response form: SelectCtx answers SELECT and
	// ASK itself and reports a CONSTRUCT as ErrConstruct.
	b, err := h.db.SelectCtx(r.Context(), src)
	if errors.Is(err, rdfshapes.ErrConstruct) {
		g, err := h.db.ConstructCtx(r.Context(), src)
		if err != nil {
			h.queryError(w, r, err)
			return
		}
		w.Header().Set("Content-Type", "application/n-triples; charset=utf-8")
		if err := rdf.WriteNTriples(w, g); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	if err != nil {
		h.queryError(w, r, err)
		return
	}
	if b.Truncated && !b.Ask {
		h.truncations.Add(1)
	}
	w.Header().Set("Content-Type", "application/sparql-results+json")
	if err := writeBindings(w, b, h.termCache(b.Dict())); err != nil {
		// The client went away mid-body. Encoding has already stopped;
		// abort the connection so nothing downstream can frame the half
		// document as a complete response. The deferred releases in
		// govern run as the panic unwinds.
		h.cancels.Add(1)
		panic(http.ErrAbortHandler)
	}
}

// termCache returns the encoded-term cache for answers resolved by d,
// replacing the handler's cache when it belongs to another dictionary;
// nil for an answer with no dictionary.
func (h *Handler) termCache(d *store.Dict) *termCache {
	if d == nil {
		return nil
	}
	for {
		c := h.terms.Load()
		if c != nil && c.dict == d {
			return c
		}
		if n := newTermCache(d); h.terms.CompareAndSwap(c, n) {
			return n
		}
	}
}

func (h *Handler) explain(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	src, err := queryParam(r)
	if err != nil {
		http.Error(w, err.Error(), errorStatus(err))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, approach := range []string{"GS", "SS"} {
		plan, err := h.db.Explain(src, approach)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintln(w, plan)
	}
	est, err := h.db.EstimateCount(src)
	if err == nil {
		fmt.Fprintf(w, "estimated result cardinality: %.0f\n", est)
	}
}

func (h *Handler) shapes(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/turtle; charset=utf-8")
	if err := h.db.WriteShapesTurtle(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "application/n-triples; charset=utf-8")
	if err := rdf.WriteNTriples(w, h.db.Stats().ToGraph()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// metrics serves the cumulative counters and histograms in Prometheus
// text exposition format.
func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := h.obs.WritePrometheus(w); err != nil {
		// headers are already out; nothing more to do
		return
	}
}

// traceRecentResponse is the JSON shape of GET /trace/recent.
type traceRecentResponse struct {
	// Total counts traces ever recorded, including ring-evicted ones.
	Total uint64 `json:"total"`
	// Traces holds the most recent traces, newest first.
	Traces []obsv.QueryTrace `json:"traces"`
}

// traceRecent serves the last n query traces (default 20, capped at the
// ring capacity) as JSON, newest first.
func (h *Handler) traceRecent(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	n := 20
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			http.Error(w, fmt.Sprintf("invalid 'n' parameter %q", s), http.StatusBadRequest)
			return
		}
		n = v
	}
	resp := traceRecentResponse{Total: h.obs.TraceCount(), Traces: h.obs.Recent(n)}
	if resp.Traces == nil {
		resp.Traces = []obsv.QueryTrace{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		return
	}
}

func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","triples":%d,"nodeShapes":%d,"propertyShapes":%d}`+"\n",
		h.db.NumTriples(), h.db.Shapes().Len(), h.db.Shapes().PropertyShapeCount())
}

// readyz reports readiness to take traffic: 200 once recovery is done
// and the handler is constructed, 503 after SetReady(false) (draining).
// Distinct from /healthz, which stays 200 for the process's whole life.
func (h *Handler) readyz(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if !h.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"ready":false}`)
		return
	}
	fmt.Fprintln(w, `{"ready":true}`)
}

// replStatus serves GET /repl/status: the follower's own status on a
// replica, a synthesized primary status on a durable DB. The router
// consumes it for health checks and staleness-based ejection.
func (h *Handler) replStatus(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	var st repl.StatusResponse
	if s, ok := h.db.ReplicaStatus(); ok {
		st = s
	} else if ds, ok := h.db.DurabilityStats(); ok {
		st = repl.StatusResponse{
			Role:       "primary",
			Generation: ds.Generation,
			AppliedSeq: ds.LastSeq,
			PrimarySeq: ds.LastSeq,
			Connected:  true,
		}
	} else {
		http.Error(w, "replication status unavailable", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(st); err != nil {
		return
	}
}

// checkpointResponse is the JSON shape of POST /admin/checkpoint.
type checkpointResponse struct {
	// Generation is the newly installed snapshot/WAL generation.
	Generation uint64 `json:"generation"`
	// Triples is the dataset size the snapshot captured.
	Triples int `json:"triples"`
	// DurationSeconds is the checkpoint wall time.
	DurationSeconds float64 `json:"durationSeconds"`
}

// adminCheckpoint triggers a synchronous checkpoint: snapshot the
// dataset, rotate the WAL, prune old generations. 409 when the DB has no
// durability directory attached.
func (h *Handler) adminCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	st, err := h.db.Checkpoint()
	if err != nil {
		if errors.Is(err, rdfshapes.ErrNotDurable) {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h.checkpoints.Observe(st.Duration.Seconds())
	w.Header().Set("Content-Type", "application/json")
	resp := checkpointResponse{
		Generation:      st.Generation,
		Triples:         st.Triples,
		DurationSeconds: st.Duration.Seconds(),
	}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		return
	}
}
