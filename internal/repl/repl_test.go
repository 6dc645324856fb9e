package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"rdfshapes/internal/frame"
	"rdfshapes/internal/rdf"
	"rdfshapes/internal/store"
	"rdfshapes/internal/wal"
)

// triple builds a deterministic test triple.
func triple(i int) rdf.Triple {
	return rdf.NewTriple(
		rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)),
		rdf.NewIRI("http://x/p"),
		rdf.NewLiteral(fmt.Sprintf("v%d", i)),
	)
}

// storeTriples extracts a store's contents as a term-level set.
func storeTriples(st *store.Store) map[rdf.Triple]bool {
	out := map[rdf.Triple]bool{}
	st.Scan(store.IDTriple{}, func(tr store.IDTriple) bool {
		out[rdf.Triple{S: st.Dict().Term(tr.S), P: st.Dict().Term(tr.P), O: st.Dict().Term(tr.O)}] = true
		return true
	})
	return out
}

// memTarget is an in-memory Target: a term-level triple set plus a log
// of applied sequence numbers, with an optional injected apply failure
// to simulate a replica crash mid-apply.
type memTarget struct {
	mu         sync.Mutex
	triples    map[rdf.Triple]bool
	applied    []uint64
	bootstraps int
	flushes    int
	failAtSeq  uint64 // Apply(seq == failAtSeq) fails once, then clears
}

func newMemTarget() *memTarget { return &memTarget{triples: map[rdf.Triple]bool{}} }

func (t *memTarget) Bootstrap(gen uint64, snapshot []byte) error {
	st, err := store.ReadSnapshot(snapshot)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.triples = storeTriples(st)
	t.bootstraps++
	return nil
}

func (t *memTarget) Apply(seq uint64, b wal.Batch) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failAtSeq != 0 && seq == t.failAtSeq {
		t.failAtSeq = 0
		return fmt.Errorf("injected crash at seq %d", seq)
	}
	if n := len(t.applied); n > 0 && seq <= t.applied[n-1] {
		return fmt.Errorf("non-monotonic apply: %d after %d", seq, t.applied[n-1])
	}
	t.applied = append(t.applied, seq)
	for _, tr := range b.Insert {
		t.triples[tr] = true
	}
	for _, tr := range b.Delete {
		delete(t.triples, tr)
	}
	return nil
}

func (t *memTarget) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushes++
	return nil
}

func (t *memTarget) snapshot() (map[rdf.Triple]bool, []uint64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	set := make(map[rdf.Triple]bool, len(t.triples))
	for k, v := range t.triples {
		set[k] = v
	}
	return set, append([]uint64(nil), t.applied...), t.bootstraps
}

// primaryFixture is a WAL-backed primary behind an httptest server,
// plus the oracle triple set every applied commit folds into.
type primaryFixture struct {
	t      *testing.T
	mgr    *wal.Manager
	fs     *wal.MemFS
	srv    *httptest.Server
	mux    *http.ServeMux
	oracle map[rdf.Triple]bool
	nextID int
}

func newPrimaryFixture(t *testing.T, seedTriples int) *primaryFixture {
	t.Helper()
	fs := wal.NewMemFS()
	seed := store.New()
	oracle := map[rdf.Triple]bool{}
	for i := 0; i < seedTriples; i++ {
		tr := triple(i)
		seed.Add(tr)
		oracle[tr] = true
	}
	seed.Freeze()
	mgr, err := wal.Create("/data", wal.Options{FS: fs}, seed.WriteSnapshot)
	if err != nil {
		t.Fatalf("wal.Create: %v", err)
	}
	f := &primaryFixture{t: t, mgr: mgr, fs: fs, oracle: oracle, nextID: seedTriples}
	f.mux = http.NewServeMux()
	f.mount(mgr)
	f.srv = httptest.NewServer(f.mux)
	t.Cleanup(func() { f.srv.Close(); f.mgr.Close() })
	return f
}

// mount (re-)installs the shipping handlers over mgr; restart swaps in
// a recovered manager without changing the URL.
func (f *primaryFixture) mount(mgr *wal.Manager) {
	p := NewPrimary(mgr)
	f.mux = http.NewServeMux()
	f.mux.HandleFunc(WALPath, p.ServeWAL)
	f.mux.HandleFunc(SnapshotPath, p.ServeSnapshot)
	if f.srv != nil {
		f.srv.Config.Handler = f.mux
	}
}

// append logs n fresh single-insert commits and folds them into the
// oracle.
func (f *primaryFixture) append(n int) {
	f.t.Helper()
	for i := 0; i < n; i++ {
		tr := triple(f.nextID)
		f.nextID++
		if err := f.mgr.Append(wal.Batch{Insert: []rdf.Triple{tr}}); err != nil {
			f.t.Fatalf("Append: %v", err)
		}
		f.oracle[tr] = true
	}
}

// checkpoint rotates the WAL with the oracle's current contents.
func (f *primaryFixture) checkpoint() {
	f.t.Helper()
	st := store.New()
	for tr := range f.oracle {
		st.Add(tr)
	}
	st.Freeze()
	if _, err := f.mgr.Checkpoint(st.WriteSnapshot); err != nil {
		f.t.Fatalf("Checkpoint: %v", err)
	}
}

func newTestFollower(f *primaryFixture, tgt Target) *Follower {
	return NewFollower(FollowerConfig{
		Primary:      f.srv.URL,
		Target:       tgt,
		PollInterval: 5 * time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   10 * time.Millisecond,
		Seed:         1,
	})
}

// mustSync runs one Sync and fails the test on error.
func mustSync(t *testing.T, fl *Follower) {
	t.Helper()
	if err := fl.Sync(context.Background()); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func assertConverged(t *testing.T, f *primaryFixture, tgt *memTarget) {
	t.Helper()
	set, applied, _ := tgt.snapshot()
	if !reflect.DeepEqual(set, f.oracle) {
		t.Fatalf("replica holds %d triples, oracle %d; sets differ", len(set), len(f.oracle))
	}
	for i := 1; i < len(applied); i++ {
		if applied[i] <= applied[i-1] {
			t.Fatalf("applied seqs not strictly increasing: %v", applied)
		}
	}
}

func TestFollowerBootstrapAndTail(t *testing.T) {
	f := newPrimaryFixture(t, 5)
	f.append(3)
	tgt := newMemTarget()
	fl := newTestFollower(f, tgt)
	mustSync(t, fl)
	assertConverged(t, f, tgt)

	st := fl.Status()
	if st.Bootstraps != 1 || st.AppliedSeq != 3 || st.PrimarySeq != 3 || st.LagRecords != 0 || !st.Connected {
		t.Fatalf("status %+v, want bootstrapped, applied 3, caught up", st)
	}

	// More commits arrive; tailing picks them up without re-bootstrap.
	f.append(4)
	mustSync(t, fl)
	assertConverged(t, f, tgt)
	if st := fl.Status(); st.Bootstraps != 1 || st.AppliedSeq != 7 {
		t.Fatalf("status %+v, want tail to 7 with one bootstrap", st)
	}
}

func TestFollowerRotationMidTail(t *testing.T) {
	f := newPrimaryFixture(t, 2)
	f.append(3)
	tgt := newMemTarget()
	fl := newTestFollower(f, tgt)
	mustSync(t, fl)

	// One checkpoint: the old generation is retained, the follower just
	// walks across the rotation.
	f.checkpoint()
	f.append(2)
	mustSync(t, fl)
	assertConverged(t, f, tgt)
	st := fl.Status()
	if st.Bootstraps != 1 {
		t.Fatalf("rotation forced a re-bootstrap: %+v", st)
	}
	if st.Generation != 2 {
		t.Fatalf("cursor generation %d, want 2 after rotation", st.Generation)
	}
}

func TestFollowerPrunedGenerationRebootstraps(t *testing.T) {
	f := newPrimaryFixture(t, 2)
	f.append(2)
	tgt := newMemTarget()
	fl := newTestFollower(f, tgt)
	mustSync(t, fl)

	// Two checkpoints while the follower lags: its generation is pruned,
	// the next poll gets 410 and re-bootstraps from the new snapshot.
	f.checkpoint()
	f.append(3)
	f.checkpoint()
	f.append(1)
	mustSync(t, fl)
	assertConverged(t, f, tgt)
	st := fl.Status()
	if st.Bootstraps != 2 {
		t.Fatalf("bootstraps = %d, want 2 (pruned generation forces re-bootstrap)", st.Bootstraps)
	}
	_, _, bootstraps := tgt.snapshot()
	if bootstraps != 2 {
		t.Fatalf("target saw %d bootstraps, want 2", bootstraps)
	}
}

func TestFollowerPrimaryRestartMidTail(t *testing.T) {
	f := newPrimaryFixture(t, 3)
	f.append(2)
	tgt := newMemTarget()
	fl := newTestFollower(f, tgt)
	mustSync(t, fl)

	// Primary restarts: close, recover from the same directory, swap the
	// handlers. Sequence numbers continue, the follower resumes cleanly.
	f.mgr.Close()
	mgr, _, _, err := wal.Open("/data", wal.Options{FS: f.fs})
	if err != nil {
		t.Fatalf("wal.Open after restart: %v", err)
	}
	f.mgr = mgr
	f.mount(mgr)
	f.append(3)
	mustSync(t, fl)
	assertConverged(t, f, tgt)
	if st := fl.Status(); st.Bootstraps != 1 || st.AppliedSeq != 5 {
		t.Fatalf("status after primary restart %+v, want resumed tail to 5", st)
	}
}

func TestFollowerDivergentPrimaryRebootstraps(t *testing.T) {
	f := newPrimaryFixture(t, 2)
	f.append(4)
	tgt := newMemTarget()
	fl := newTestFollower(f, tgt)
	mustSync(t, fl)

	// The primary is rebuilt from scratch (acknowledged commits lost):
	// its sequence regresses below the replica's, which must detect the
	// divergence and replace its state rather than keep a phantom suffix.
	f.mgr.Close()
	fs := wal.NewMemFS()
	seed := store.New()
	fresh := map[rdf.Triple]bool{}
	for i := 100; i < 103; i++ {
		seed.Add(triple(i))
		fresh[triple(i)] = true
	}
	seed.Freeze()
	mgr, err := wal.Create("/data", wal.Options{FS: fs}, seed.WriteSnapshot)
	if err != nil {
		t.Fatalf("wal.Create: %v", err)
	}
	f.mgr, f.fs, f.oracle = mgr, fs, fresh
	f.mount(mgr)

	mustSync(t, fl)
	assertConverged(t, f, tgt)
	if st := fl.Status(); st.Bootstraps != 2 {
		t.Fatalf("bootstraps = %d, want 2 after divergence", st.Bootstraps)
	}
}

// streamFault is how faultyHandler damages a /repl/wal body at an
// offset.
type streamFault int

const (
	cleanCut  streamFault = iota // the body ends at the offset
	killedCut                    // full length announced, connection killed at the offset
	bitFlip                      // one bit flipped at the offset, body otherwise whole
)

// faultyHandler serves an inner handler's /repl/wal responses for
// generation 1 damaged at byte offset at (-1: pass through).
type faultyHandler struct {
	inner http.Handler
	mu    sync.Mutex
	at    int
	fault streamFault
}

func (h *faultyHandler) set(at int, fault streamFault) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.at, h.fault = at, fault
}

func (h *faultyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	at, fault := h.at, h.fault
	h.mu.Unlock()
	if at < 0 || r.URL.Path != WALPath || r.URL.Query().Get("gen") != "1" {
		h.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	h.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if at > len(body) {
		at = len(body)
	}
	for k, vs := range rec.Header() {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	switch fault {
	case cleanCut:
		body = body[:at]
	case killedCut:
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	case bitFlip:
		body = append([]byte(nil), body...)
		body[at] ^= 1 << (at % 8)
	}
	w.WriteHeader(rec.Code)
	if fault != killedCut {
		_, _ = w.Write(body)
		return
	}
	_, _ = w.Write(body[:at])
	// Abort the connection so the client cannot wait for the rest.
	panic(http.ErrAbortHandler)
}

// tornStreamCase runs the damaged-stream matrix over every offset of the
// /repl/wal body for generation 1, in one of three delivery modes. With
// gens 1 the primary holds five commits in one generation and the
// follower bootstraps; with gens 2 a checkpoint splits them three and
// two, and the follower starts on generation 1, so the damage lands in
// the older generation of a round that must cross the rotation.
// Whatever a damaged round applies is a prefix of the primary's log, a
// round that reports success holds exactly the oracle, a damaged round
// never moves the cursor past generation 1, and the next clean round
// converges without a re-bootstrap.
func tornStreamCase(t *testing.T, fault streamFault, gens int) {
	f := newPrimaryFixture(t, 2)
	seed := map[rdf.Triple]bool{}
	for tr := range f.oracle {
		seed[tr] = true
	}
	f.append(3)
	if gens == 2 {
		f.checkpoint()
	}
	f.append(2)

	proxyH := &faultyHandler{inner: f.mux, at: -1}
	proxy := httptest.NewServer(proxyH)
	defer proxy.Close()

	// Probe the full generation 1 body size once.
	seg, _, _, err := f.mgr.ReadSegment(1, 0)
	if err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	wireLen := len(seg)
	last := wireLen
	if fault == bitFlip {
		last = wireLen - 1 // a flip needs a byte to land on
	}

	for at := 0; at <= last; at++ {
		tgt := newMemTarget()
		cfg := FollowerConfig{
			Primary:     proxy.URL,
			Target:      tgt,
			BackoffBase: time.Millisecond,
			BackoffMax:  2 * time.Millisecond,
			Seed:        int64(at + 1),
		}
		bootstraps := int64(1)
		if gens == 2 {
			// Start on generation 1 from its snapshot's contents.
			for tr := range seed {
				tgt.triples[tr] = true
			}
			cfg.StartGen, bootstraps = 1, 0
		}
		fl := NewFollower(cfg)
		proxyH.set(at, fault)
		err := fl.Sync(context.Background())
		if err == nil && (fault == bitFlip || at < wireLen) {
			t.Fatalf("at=%d: damaged sync reported success", at)
		}
		if fault == bitFlip && (!errors.Is(err, frame.ErrTorn) || fl.Status().TornStreams != 1) {
			t.Fatalf("at=%d: flipped bit surfaced as %v, %d torn streams counted; want one torn stream",
				at, err, fl.Status().TornStreams)
		}
		// Whatever applied before the damage must be a clean prefix.
		_, applied, _ := tgt.snapshot()
		for i, s := range applied {
			if s != uint64(i+1) {
				t.Fatalf("at=%d: applied %v is not a prefix of 1..5", at, applied)
			}
		}
		wantGen := uint64(1)
		if err == nil {
			assertConverged(t, f, tgt)
			wantGen = uint64(gens)
		}
		if st := fl.Status(); st.Generation != wantGen {
			t.Fatalf("at=%d: cursor on generation %d after err=%v, want %d", at, st.Generation, err, wantGen)
		}
		// The retry resumes from the follower's cursor and converges.
		proxyH.set(-1, fault)
		mustSync(t, fl)
		assertConverged(t, f, tgt)
		if st := fl.Status(); st.AppliedSeq != 5 || st.Bootstraps != bootstraps || st.Generation != uint64(gens) {
			t.Fatalf("at=%d: applied seq %d on generation %d after %d bootstraps, want 5 on %d after %d",
				at, st.AppliedSeq, st.Generation, st.Bootstraps, gens, bootstraps)
		}
	}
}

func TestFollowerTornStreamEveryBoundary(t *testing.T)   { tornStreamCase(t, cleanCut, 1) }
func TestFollowerKilledConnectionMidRecord(t *testing.T) { tornStreamCase(t, killedCut, 1) }
func TestFollowerBitFlipEveryOffset(t *testing.T)        { tornStreamCase(t, bitFlip, 1) }

// TestFollowerTornOlderGeneration damages the older generation of a
// round that crosses a rotation, in every delivery mode: a body cut on a
// record boundary there is still an incomplete round, because its
// target is the generation's own last seq.
func TestFollowerTornOlderGeneration(t *testing.T) {
	for _, fault := range []streamFault{cleanCut, killedCut, bitFlip} {
		tornStreamCase(t, fault, 2)
	}
}

func TestFollowerCrashDuringApplyAndRejoin(t *testing.T) {
	f := newPrimaryFixture(t, 2)
	f.append(6)

	// The replica dies mid-apply at seq 4: the sync fails, seqs 1-3 are
	// applied, nothing past the crash is.
	tgt := newMemTarget()
	tgt.failAtSeq = 4
	fl := newTestFollower(f, tgt)
	if err := fl.Sync(context.Background()); err == nil {
		t.Fatal("sync survived an apply crash")
	}
	_, applied, _ := tgt.snapshot()
	if want := []uint64{1, 2, 3}; !reflect.DeepEqual(applied, want) {
		t.Fatalf("applied %v, want %v", applied, want)
	}

	// Rejoin path 1: the same process retries — the cursor resumes after
	// the last applied commit, nothing is double-applied.
	mustSync(t, fl)
	assertConverged(t, f, tgt)

	// Rejoin path 2: the replica process restarts from nothing and
	// re-bootstraps; a restarted follower carries no cursor.
	tgt2 := newMemTarget()
	fl2 := newTestFollower(f, tgt2)
	mustSync(t, fl2)
	assertConverged(t, f, tgt2)
}

func TestFollowerResumableCursorAcrossRestart(t *testing.T) {
	f := newPrimaryFixture(t, 1)
	f.append(3)
	tgt := newMemTarget()
	fl := newTestFollower(f, tgt)
	mustSync(t, fl)
	st := fl.Status()

	// A follower restarted with the previous cursor (resumable offsets)
	// tails on without re-fetching the snapshot.
	f.append(2)
	fl2 := NewFollower(FollowerConfig{
		Primary:  f.srv.URL,
		Target:   tgt,
		StartGen: st.Generation,
		StartSeq: st.AppliedSeq,
		Seed:     1,
	})
	mustSync(t, fl2)
	assertConverged(t, f, tgt)
	if got := fl2.Status(); got.Bootstraps != 0 {
		t.Fatalf("resumed follower bootstrapped %d times, want 0", got.Bootstraps)
	}
}

func TestFollowerRunConvergesUnderConcurrentAppends(t *testing.T) {
	f := newPrimaryFixture(t, 1)
	tgt := newMemTarget()
	fl := newTestFollower(f, tgt)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fl.Run(ctx) }()

	var mu sync.Mutex // guards fixture oracle against the test goroutine
	for i := 0; i < 30; i++ {
		mu.Lock()
		f.append(1)
		if i == 15 {
			f.checkpoint()
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := fl.Status(); st.AppliedSeq == 30 && st.LagRecords == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", fl.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	assertConverged(t, f, tgt)
}

// fakeNode is a controllable /readyz + /repl/status backend for router
// tests; every proxied response carries X-Served-By so tests can see
// which backend answered.
type fakeNode struct {
	name string
	srv  *httptest.Server
	mu   sync.Mutex
	st   StatusResponse
	up   bool
}

func newFakeNode(t *testing.T, name, role string) *fakeNode {
	n := &fakeNode{name: name, up: true, st: StatusResponse{Role: role, Connected: true}}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		up := n.up
		n.mu.Unlock()
		if !up {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"ready":true}`)
	})
	mux.HandleFunc(StatusPath, func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		st := n.st
		n.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"role":%q,"stalenessSeconds":%f,"lagRecords":%d,"connected":true}`,
			st.Role, st.StalenessSeconds, st.LagRecords)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Served-By", name)
		fmt.Fprintln(w, "ok")
	})
	n.srv = httptest.NewServer(mux)
	t.Cleanup(n.srv.Close)
	return n
}

func (n *fakeNode) setStaleness(s float64) {
	n.mu.Lock()
	n.st.StalenessSeconds = s
	n.mu.Unlock()
}

func (n *fakeNode) setReady(up bool) {
	n.mu.Lock()
	n.up = up
	n.mu.Unlock()
}

// servedBy issues one read through the router and returns the
// X-Served-By marker plus the stale header.
func servedBy(t *testing.T, rt *Router, path string) (who, stale string) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("read through router: %d %s", rec.Code, rec.Body.String())
	}
	return rec.Header().Get("X-Served-By"), rec.Header().Get(HeaderStale)
}

func newTestRouter(t *testing.T, primary *fakeNode, replicas ...*fakeNode) *Router {
	urls := make([]string, len(replicas))
	for i, r := range replicas {
		urls[i] = r.srv.URL
	}
	rt, err := NewRouter(RouterConfig{
		Primary:      primary.srv.URL,
		Replicas:     urls,
		MaxStaleness: time.Second,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	return rt
}

func TestRouterRoundRobinAndWriteRouting(t *testing.T) {
	prim := newFakeNode(t, "primary", "primary")
	r1 := newFakeNode(t, "r1", "replica")
	r2 := newFakeNode(t, "r2", "replica")
	rt := newTestRouter(t, prim, r1, r2)
	rt.checkAll(context.Background())

	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		who, stale := servedBy(t, rt, "/sparql?query=x")
		if stale != "" {
			t.Fatalf("healthy read flagged stale")
		}
		seen[who]++
	}
	if seen["r1"] != 3 || seen["r2"] != 3 {
		t.Fatalf("reads not round-robined: %v", seen)
	}
	if seen["primary"] != 0 {
		t.Fatalf("reads hit the primary with healthy replicas: %v", seen)
	}

	// Writes always route to the primary.
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update", nil))
	if rec.Header().Get("X-Served-By") != "primary" {
		t.Fatalf("write served by %q, want primary", rec.Header().Get("X-Served-By"))
	}
}

func TestRouterEjectsLaggardAndReadmits(t *testing.T) {
	prim := newFakeNode(t, "primary", "primary")
	r1 := newFakeNode(t, "r1", "replica")
	r2 := newFakeNode(t, "r2", "replica")
	rt := newTestRouter(t, prim, r1, r2)
	rt.checkAll(context.Background())

	// r2 falls past the staleness bound: ejected, all reads go to r1.
	r2.setStaleness(5)
	rt.checkAll(context.Background())
	for i := 0; i < 4; i++ {
		if who, _ := servedBy(t, rt, "/sparql?query=x"); who != "r1" {
			t.Fatalf("read served by %q with r2 ejected, want r1", who)
		}
	}
	if st := rt.Status(); st.Ejections != 1 {
		t.Fatalf("ejections = %d, want 1", st.Ejections)
	}

	// r2 catches back up: readmitted into the rotation.
	r2.setStaleness(0)
	rt.checkAll(context.Background())
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		who, _ := servedBy(t, rt, "/sparql?query=x")
		seen[who]++
	}
	if seen["r2"] == 0 {
		t.Fatalf("r2 not readmitted: %v", seen)
	}
}

func TestRouterFailsOverToPrimaryThenDegradesStale(t *testing.T) {
	prim := newFakeNode(t, "primary", "primary")
	r1 := newFakeNode(t, "r1", "replica")
	r2 := newFakeNode(t, "r2", "replica")
	rt := newTestRouter(t, prim, r1, r2)

	// Both replicas beyond the bound, primary healthy: fail over.
	r1.setStaleness(3)
	r2.setStaleness(9)
	rt.checkAll(context.Background())
	if who, stale := servedBy(t, rt, "/sparql?query=x"); who != "primary" || stale != "" {
		t.Fatalf("served by %q (stale %q), want healthy primary", who, stale)
	}

	// Primary also down: degraded read from the least-stale replica,
	// flagged with the stale header.
	prim.setReady(false)
	rt.checkAll(context.Background())
	who, stale := servedBy(t, rt, "/sparql?query=x")
	if who != "r1" {
		t.Fatalf("degraded read served by %q, want least-stale r1", who)
	}
	if stale == "" {
		t.Fatalf("degraded read missing %s header", HeaderStale)
	}
	if st := rt.Status(); st.StaleReads == 0 {
		t.Fatalf("stale reads not counted: %+v", st)
	}
}

func TestRouterFailoverOnDeadReplicaMidRequest(t *testing.T) {
	prim := newFakeNode(t, "primary", "primary")
	r1 := newFakeNode(t, "r1", "replica")
	rt := newTestRouter(t, prim, r1)
	rt.checkAll(context.Background())

	// r1 dies between health checks; the in-flight read fails over to
	// the primary transparently instead of surfacing a 502.
	r1.srv.Close()
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql?query=x", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("read after replica death: %d", rec.Code)
	}
	if got := rec.Header().Get("X-Served-By"); got != "primary" {
		t.Fatalf("failover read served by %q, want primary", got)
	}
	if st := rt.Status(); st.Ejections == 0 {
		t.Fatalf("mid-request failover not counted as ejection: %+v", st)
	}
}

func TestRouterStatusEndpoint(t *testing.T) {
	prim := newFakeNode(t, "primary", "primary")
	r1 := newFakeNode(t, "r1", "replica")
	rt := newTestRouter(t, prim, r1)
	rt.checkAll(context.Background())

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, StatusPath, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("router status: %d", rec.Code)
	}
	var st RouterStatus
	if err := jsonDecode(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding router status: %v", err)
	}
	if st.Role != "router" || len(st.Backends) != 2 {
		t.Fatalf("router status %+v, want role router with 2 backends", st)
	}
}

func jsonDecode(data []byte, v any) error {
	return json.Unmarshal(data, v)
}
