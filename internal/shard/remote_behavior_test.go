package shard

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"rdfshapes/internal/chaos"
	"rdfshapes/internal/engine"
	"rdfshapes/internal/rdf"
	"rdfshapes/internal/sparql"
	"rdfshapes/internal/store"
)

// TestRemoteStreamsIncrementally proves the decoder is a stream, not a
// buffer: the server writes one frame, then refuses to send EOS until
// the client has already surfaced that frame's rows to the callback. A
// whole-response-buffering client can never pass this — it would wait
// for EOS before emitting anything.
func TestRemoteStreamsIncrementally(t *testing.T) {
	sawFirst := make(chan struct{})
	line := "<http://x/a> <http://x/p> <http://x/b> .\n"

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ScanContentType)
		fw := newFrameWriter(w, 1) // flush every line
		if err := fw.writeHeader(); err != nil {
			return
		}
		if _, err := fw.addLine([]byte(line)); err != nil {
			return
		}
		w.(http.Flusher).Flush()
		select {
		case <-sawFirst:
		case <-time.After(5 * time.Second):
			return // give up: truncation error beats a deadlocked test
		}
		fw.close()
	}))
	defer srv.Close()

	rd := store.NewDict()
	remote := NewRemoteConfig(srv.URL, srv.Client(), rd, RemoteConfig{Timeout: 10 * time.Second})
	var rows int
	remote.Scan(store.IDTriple{}, func(store.IDTriple) bool {
		rows++
		select {
		case <-sawFirst:
		default:
			close(sawFirst)
		}
		return true
	})
	if err := remote.Err(); err != nil {
		t.Fatalf("Err() = %v (client buffered the body instead of streaming)", err)
	}
	if rows != 1 {
		t.Fatalf("rows = %d, want 1", rows)
	}
}

// TestRemoteScanMemoryBounded streams a response far larger than the
// permitted live-heap growth. The old implementation buffered the whole
// body before parsing, which this bound catches immediately.
func TestRemoteScanMemoryBounded(t *testing.T) {
	const rows = 300000
	// A small rotating term set keeps the dictionary footprint flat, so
	// heap growth tracks decoder buffering, not interning.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ScanContentType)
		fw := newFrameWriter(w, DefaultFrameBytes)
		if err := fw.writeHeader(); err != nil {
			return
		}
		for i := 0; i < rows; i++ {
			l := fmt.Sprintf("<http://x/s%d> <http://x/p%d> <http://x/o%d> .\n",
				i%97, i%7, i%89)
			if _, err := fw.addLine([]byte(l)); err != nil {
				return
			}
		}
		fw.close()
	}))
	defer srv.Close()

	rd := store.NewDict()
	remote := NewRemoteConfig(srv.URL, srv.Client(), rd, RemoteConfig{Timeout: time.Minute})

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	var got int64
	var peak uint64
	remote.Scan(store.IDTriple{}, func(store.IDTriple) bool {
		got++
		if got%50000 == 0 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
		return true
	})
	if err := remote.Err(); err != nil {
		t.Fatal(err)
	}
	if got != rows {
		t.Fatalf("rows = %d, want %d", got, rows)
	}
	// ~13MB of wire bytes must not be resident at once; allow generous
	// slack for GC lag and the race detector, but far below body size.
	const limit = 8 << 20
	if peak > base && peak-base > limit {
		t.Errorf("live heap grew %d bytes during scan (limit %d) — response is being buffered",
			peak-base, limit)
	}
}

// TestRemoteLegacyFallback pins that no unframed scan body exists any
// more: the endpoint refuses a request that did not negotiate framing
// with 406, and a client handed a plain N-Triples 200 by some other
// peer reports a typed, non-retryable corrupt error after one attempt
// instead of trusting rows no checksum or row count covers.
func TestRemoteLegacyFallback(t *testing.T) {
	srv, _, _ := chaosBackend(t, 0)
	resp, err := http.Get(srv.URL + "/shard/scan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Errorf("scan without the framed Accept: status = %d, want 406", resp.StatusCode)
	}

	var hits atomic.Int64
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/n-triples")
		fmt.Fprintln(w, "<http://ex/s> <http://ex/p> <http://ex/o> .")
	}))
	defer plain.Close()
	remote := NewRemote(plain.URL, plain.Client(), store.NewDict())
	got := collect(remote.Scan, store.IDTriple{})
	var re *Error
	if err := remote.Err(); !errors.As(err, &re) || re.Kind != KindCorrupt || re.Retryable {
		t.Fatalf("unframed 200: err = %v, want a non-retryable %s error", err, KindCorrupt)
	}
	if len(got) != 0 || hits.Load() != 1 {
		t.Errorf("unframed 200: %d rows emitted over %d requests, want 0 rows and 1 request", len(got), hits.Load())
	}
}

// TestRemoteCircuitBreaker drives the full state machine on a fake
// clock: consecutive failures open it, open fast-fails without touching
// the network, cooldown admits a single half-open probe, and a healthy
// probe closes it again.
func TestRemoteCircuitBreaker(t *testing.T) {
	var hits, failing atomic.Int64
	failing.Store(1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if failing.Load() == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		HandlerWithConfig(func() Source { return sourceOf(seedGraph()) }, HandlerConfig{}).ServeHTTP(w, r)
	}))
	defer srv.Close()

	rd := store.NewDict()
	remote := NewRemoteConfig(srv.URL, srv.Client(), rd, RemoteConfig{
		MaxRetries:       -1, // each scan is exactly one attempt
		BreakerThreshold: 3,
		BreakerCooldown:  time.Second,
	})
	clock := time.Unix(1000, 0)
	remote.now = func() time.Time { return clock }

	for i := 0; i < 3; i++ {
		collect(remote.Scan, store.IDTriple{})
		var re *Error
		if err := remote.Err(); !errors.As(err, &re) || re.Kind != KindStatus {
			t.Fatalf("scan %d: err = %v, want status failure", i, err)
		}
	}
	st := remote.Stats()
	if st.BreakerOpens != 1 || st.BreakerState != "open" {
		t.Fatalf("after threshold: opens=%d state=%s, want 1/open", st.BreakerOpens, st.BreakerState)
	}

	before := hits.Load()
	collect(remote.Scan, store.IDTriple{})
	var re *Error
	if err := remote.Err(); !errors.As(err, &re) || re.Kind != KindBreakerOpen {
		t.Fatalf("open breaker: err = %v, want KindBreakerOpen", remote.Err())
	}
	if hits.Load() != before {
		t.Fatal("open breaker still hit the network")
	}
	if remote.Stats().BreakerFast != 1 {
		t.Fatalf("BreakerFast = %d, want 1", remote.Stats().BreakerFast)
	}

	// Cooldown elapses and the peer heals: the half-open probe closes it.
	clock = clock.Add(2 * time.Second)
	failing.Store(0)
	got := collect(remote.Scan, store.IDTriple{})
	if err := remote.Err(); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("half-open probe returned no rows")
	}
	if st := remote.Stats(); st.BreakerState != "closed" {
		t.Fatalf("state after probe = %s, want closed", st.BreakerState)
	}
	// And it stays closed.
	collect(remote.Scan, store.IDTriple{})
	if err := remote.Err(); err != nil {
		t.Fatal(err)
	}
}

// sourceOf loads g into a fresh store, for handlers that just need any
// Source.
func sourceOf(g rdf.Graph) Source { return store.Load(g) }

// TestRemoteHedgedRead warms the latency ring with fast scans, then
// stalls exactly one primary request: the hedge fires, wins, and the
// scan still matches the oracle.
func TestRemoteHedgedRead(t *testing.T) {
	var stallOne atomic.Int64
	inner := HandlerWithConfig(func() Source { return sourceOf(seedGraph()) }, HandlerConfig{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stallOne.CompareAndSwap(1, 0) {
			time.Sleep(400 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	rd := store.NewDict()
	remote := NewRemoteConfig(srv.URL, srv.Client(), rd, RemoteConfig{
		Timeout:       5 * time.Second,
		MaxRetries:    -1,
		HedgeQuantile: 0.5,
		HedgeMin:      time.Millisecond,
	})

	var oracle []string
	for i := 0; i < 10; i++ { // fill the ring past hedgeMinSamples
		got := collect(remote.Scan, store.IDTriple{})
		if err := remote.Err(); err != nil {
			t.Fatalf("warm-up scan %d: %v", i, err)
		}
		oracle = renderRows(rd, got)
	}

	// The stall flag is consumed by whichever request reaches the handler
	// first; under scheduler jitter that can be the hedge itself, which
	// then loses. Repeat rounds until the hedge wins one — correctness
	// must hold every round regardless.
	for round := 0; round < 10; round++ {
		stallOne.Store(1)
		got := collect(remote.Scan, store.IDTriple{})
		if err := remote.Err(); err != nil {
			t.Fatalf("round %d: hedged scan: %v", round, err)
		}
		if !equalRows(renderRows(rd, got), oracle) {
			t.Fatalf("round %d: hedged scan diverged: %d rows, oracle %d",
				round, len(got), len(oracle))
		}
		if remote.Stats().HedgeWins > 0 {
			break
		}
	}
	st := remote.Stats()
	if st.Hedges == 0 {
		t.Error("no hedge launched despite stalled primaries")
	}
	if st.HedgeWins == 0 {
		t.Error("hedge never won across 10 stalled rounds")
	}
}

// splitServers partitions the seed graph by subject into two stores and
// serves each behind its own framed handler — a real two-peer topology
// with disjoint data.
func splitServers(t *testing.T) (a, b *httptest.Server, full *store.Store) {
	t.Helper()
	g := seedGraph()
	var ga, gb rdf.Graph
	for _, tr := range g {
		h := 0
		for _, c := range tr.S.String() {
			h = h*31 + int(c)
		}
		if h%2 == 0 {
			ga.Append(tr.S, tr.P, tr.O)
		} else {
			gb.Append(tr.S, tr.P, tr.O)
		}
	}
	if len(ga) == 0 || len(gb) == 0 {
		t.Fatal("degenerate split")
	}
	sa, sb := store.Load(ga), store.Load(gb)
	a = httptest.NewServer(HandlerWithConfig(func() Source { return sa }, HandlerConfig{}))
	b = httptest.NewServer(HandlerWithConfig(func() Source { return sb }, HandlerConfig{}))
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	return a, b, store.Load(g)
}

// TestRemoteGroupFailFast pins the default partial-failure stance: one
// dead peer fails the whole scan, and TakeFault hands the engine a
// typed, non-degraded fault exactly once.
func TestRemoteGroupFailFast(t *testing.T) {
	a, _, _ := splitServers(t)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)

	rd := store.NewDict()
	pa := NewRemoteConfig(a.URL, a.Client(), rd, RemoteConfig{MaxRetries: -1})
	pb := NewRemoteConfig(dead.URL, dead.Client(), rd, RemoteConfig{MaxRetries: -1})
	grp, err := NewRemoteGroup(rd, []*Remote{pa, pb}, false)
	if err != nil {
		t.Fatal(err)
	}

	collect(grp.Scan, store.IDTriple{})
	ferr, degraded := grp.TakeFault()
	if ferr == nil || degraded {
		t.Fatalf("TakeFault = (%v, %v), want non-nil fail-fast fault", ferr, degraded)
	}
	var re *Error
	if !errors.As(ferr, &re) {
		t.Fatalf("fault is untyped: %T %v", ferr, ferr)
	}
	if ferr, _ := grp.TakeFault(); ferr != nil {
		t.Fatal("TakeFault did not clear the fault")
	}
}

// TestRemoteGroupDegraded pins the opt-in stance: the healthy peer's
// rows still flow, the fault is flagged degraded, and the degraded-scan
// counter moves.
func TestRemoteGroupDegraded(t *testing.T) {
	a, _, _ := splitServers(t)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)

	rd := store.NewDict()
	pa := NewRemoteConfig(a.URL, a.Client(), rd, RemoteConfig{MaxRetries: -1})
	pb := NewRemoteConfig(dead.URL, dead.Client(), rd, RemoteConfig{MaxRetries: -1})
	grp, err := NewRemoteGroup(rd, []*Remote{pa, pb}, true)
	if err != nil {
		t.Fatal(err)
	}

	got := collect(grp.Scan, store.IDTriple{})
	if len(got) == 0 {
		t.Fatal("degraded scan dropped the healthy peer's rows")
	}
	ferr, degraded := grp.TakeFault()
	if ferr == nil || !degraded {
		t.Fatalf("TakeFault = (%v, %v), want degraded fault", ferr, degraded)
	}
	if grp.DegradedScans() != 1 {
		t.Fatalf("DegradedScans = %d, want 1", grp.DegradedScans())
	}
}

// TestEngineOverRemoteGroupDifferential runs real BGP queries through
// the engine twice — once over the local store, once over a two-peer
// RemoteGroup with transient chaos on one leg — and demands identical
// row sets whenever the distributed run reports success.
func TestEngineOverRemoteGroupDifferential(t *testing.T) {
	a, b, full := splitServers(t)

	script := chaos.NewScript(true,
		chaos.Fault{Kind: chaos.Truncate, Offset: 30},
		chaos.Fault{Kind: chaos.None},
		chaos.Fault{Kind: chaos.Corrupt, Offset: 25},
		chaos.Fault{Kind: chaos.None},
		chaos.Fault{Kind: chaos.None},
	)
	rd := store.NewDict()
	chaotic := &http.Client{Transport: &chaos.RoundTripper{Base: a.Client().Transport, Script: script}}
	pa := NewRemoteConfig(a.URL, chaotic, rd, RemoteConfig{
		MaxRetries: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, Seed: 7})
	pb := NewRemoteConfig(b.URL, b.Client(), rd, RemoteConfig{MaxRetries: 2})
	grp, err := NewRemoteGroup(rd, []*Remote{pa, pb}, false)
	if err != nil {
		t.Fatal(err)
	}

	// Warm the coordinator dictionary: pattern constants resolve against
	// the group's dict, which only learns terms as they stream in. Loop
	// until one wildcard scan completes cleanly despite the chaos script.
	warmed := false
	for i := 0; i < 20 && !warmed; i++ {
		collect(grp.Scan, store.IDTriple{})
		if ferr, _ := grp.TakeFault(); ferr == nil {
			warmed = true
		}
	}
	if !warmed {
		t.Fatal("no clean warm-up scan in 20 tries")
	}

	queries := []string{
		`SELECT * WHERE { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/Person> }`,
		`SELECT * WHERE { ?s <http://ex.org/knows> ?o . ?o <http://ex.org/name> ?n . }`,
		`SELECT * WHERE { ?s <http://ex.org/serial> ?n }`,
	}
	for qi, src := range queries {
		q := sparql.MustParse(src)
		want, err := engine.Run(full, q.Patterns, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantRows := renderBindings(full.Dict(), want.Rows)

		var successes int
		for i := 0; i < 6; i++ {
			got, err := engine.Run(grp, q.Patterns, engine.Options{})
			if err != nil {
				if !errors.Is(err, engine.ErrSourceFailed) {
					t.Fatalf("query %d run %d: untyped engine error %v", qi, i, err)
				}
				continue
			}
			if got.Degraded {
				t.Fatalf("query %d run %d: degraded result from fail-fast group", qi, i)
			}
			successes++
			gotRows := renderBindings(rd, got.Rows)
			if !equalRows(gotRows, wantRows) {
				t.Fatalf("query %d run %d: SILENT divergence\n got %v\nwant %v",
					qi, i, gotRows, wantRows)
			}
		}
		if successes == 0 {
			t.Errorf("query %d: no distributed run ever succeeded under transient chaos", qi)
		}
	}
}

// renderBindings turns binding rows into sorted comparable strings.
func renderBindings(d *store.Dict, rows [][]store.ID) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		s := ""
		for _, id := range row {
			s += d.Term(id).String() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}
