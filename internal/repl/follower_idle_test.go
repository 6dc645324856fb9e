package repl

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// shortIdle shortens the idle timeout for one test.
func shortIdle(t *testing.T) {
	t.Helper()
	old := idleTimeout
	idleTimeout = 100 * time.Millisecond
	t.Cleanup(func() { idleTimeout = old })
}

// syncWithin runs one Sync under a context that never expires and fails
// the test unless it returns an error well inside the given bound — a
// follower without an idle timeout hangs here.
func syncWithin(t *testing.T, fl *Follower, bound time.Duration) {
	t.Helper()
	errc := make(chan error, 1)
	start := time.Now()
	go func() { errc <- fl.Sync(context.Background()) }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Sync against a silent primary reported success")
		}
		if !errors.Is(err, errIdle) {
			t.Fatalf("Sync = %v, want the idle timeout", err)
		}
		t.Logf("Sync gave up after %v: %v", time.Since(start).Round(time.Millisecond), err)
	case <-time.After(bound):
		t.Fatalf("Sync still blocked after %v", bound)
	}
}

// runUntilConverged starts Run while the fault is still in place, clears
// it once Run has given up on another faulted round, and waits for the
// follower to catch up.
func runUntilConverged(t *testing.T, f *primaryFixture, fl *Follower, tgt *memTarget, clear func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	reconnects := fl.Status().Reconnects
	go func() { done <- fl.Run(ctx) }()
	want := uint64(f.nextID - 2) // seeded with 2 triples, one commit per later one
	deadline := time.Now().Add(10 * time.Second)
	for fl.Status().Reconnects == reconnects {
		if time.Now().After(deadline) {
			cancel()
			<-done
			t.Fatalf("Run never gave up on a faulted round: %+v", fl.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	clear()
	for st := fl.Status(); st.AppliedSeq != want || !st.Connected; st = fl.Status() {
		if time.Now().After(deadline) {
			cancel()
			<-done
			t.Fatalf("follower never converged after the fault cleared: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	assertConverged(t, f, tgt)
}

// stallingHandler passes requests through to inner until armed. Armed,
// it answers /repl/wal with 200 and its headers, then sends nothing
// more until the client hangs up or release closes.
type stallingHandler struct {
	inner   http.Handler
	release chan struct{}
	mu      sync.Mutex
	armed   bool
}

func (h *stallingHandler) set(armed bool) {
	h.mu.Lock()
	h.armed = armed
	h.mu.Unlock()
}

func (h *stallingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	armed := h.armed
	h.mu.Unlock()
	if !armed || r.URL.Path != WALPath {
		h.inner.ServeHTTP(w, r)
		return
	}
	w.Header().Set(HeaderGeneration, "1")
	w.Header().Set(HeaderSeq, "99")
	w.WriteHeader(http.StatusOK)
	w.(http.Flusher).Flush()
	select {
	case <-r.Context().Done():
	case <-h.release:
	}
}

// TestFollowerStalledPrimary: a primary that sends headers and then
// goes silent mid-poll costs one idle window, counts as a reconnect, and
// Run converges once the primary answers again.
func TestFollowerStalledPrimary(t *testing.T) {
	shortIdle(t)
	f := newPrimaryFixture(t, 2)
	f.append(3)
	stall := &stallingHandler{inner: f.mux, release: make(chan struct{})}
	front := httptest.NewServer(stall)
	defer front.Close()
	defer close(stall.release) // before Close, which waits for handlers

	tgt := newMemTarget()
	fl := NewFollower(FollowerConfig{
		Primary:      front.URL,
		Target:       tgt,
		PollInterval: 5 * time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   10 * time.Millisecond,
		Seed:         1,
	})
	mustSync(t, fl)

	f.append(2)
	stall.set(true)
	syncWithin(t, fl, 20*idleTimeout)
	if st := fl.Status(); st.Connected || st.Reconnects != 1 || st.AppliedSeq != 3 {
		t.Fatalf("status after a stalled poll %+v, want disconnected, 1 reconnect, cursor at 3", st)
	}
	runUntilConverged(t, f, fl, tgt, func() { stall.set(false) })
	if st := fl.Status(); st.Bootstraps != 1 {
		t.Fatalf("bootstraps = %d, want 1 (a stall is not a divergence)", st.Bootstraps)
	}
}

// blackholeListener accepts TCP connections and, while armed, holds them
// without reading or writing a byte.
type blackholeListener struct {
	net.Listener
	mu    sync.Mutex
	armed bool
	held  []net.Conn
}

func (l *blackholeListener) set(armed bool) {
	l.mu.Lock()
	l.armed = armed
	l.mu.Unlock()
}

func (l *blackholeListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		armed := l.armed
		if armed {
			l.held = append(l.held, c)
		}
		l.mu.Unlock()
		if !armed {
			return c, nil
		}
	}
}

func (l *blackholeListener) Close() error {
	l.mu.Lock()
	for _, c := range l.held {
		c.Close()
	}
	l.mu.Unlock()
	return l.Listener.Close()
}

// TestFollowerBlackholedPrimary: a primary whose connections are
// accepted but never answered fails the bootstrap within one idle window
// instead of hanging it, and Run bootstraps once the path clears.
func TestFollowerBlackholedPrimary(t *testing.T) {
	shortIdle(t)
	f := newPrimaryFixture(t, 2)
	f.append(4)
	front := httptest.NewUnstartedServer(f.mux)
	hole := &blackholeListener{Listener: front.Listener, armed: true}
	front.Listener = hole
	front.Start()
	defer front.Close()

	tgt := newMemTarget()
	fl := NewFollower(FollowerConfig{
		Primary:      front.URL,
		Target:       tgt,
		PollInterval: 5 * time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   10 * time.Millisecond,
		Seed:         1,
	})
	syncWithin(t, fl, 20*idleTimeout)
	if st := fl.Status(); st.Connected || st.Reconnects != 1 || st.Bootstraps != 0 {
		t.Fatalf("status after a blackholed bootstrap %+v, want disconnected, 1 reconnect, no bootstrap", st)
	}
	runUntilConverged(t, f, fl, tgt, func() { hole.set(false) })
}
