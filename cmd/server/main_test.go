package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"rdfshapes"
)

// writeTestData writes an N-Triples file whose single predicate makes
// the cross-product query below expensive enough to still be in flight
// when the drain starts.
func writeTestData(t *testing.T, subjects int) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < subjects; i++ {
		fmt.Fprintf(&b, "<http://x/s%d> <http://x/p> <http://x/o%d> .\n", i, i)
	}
	path := filepath.Join(t.TempDir(), "data.nt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// startRun launches run with the given flags and returns the base URL.
func startRun(t *testing.T, ctx context.Context, args ...string) (base string, errc chan error) {
	t.Helper()
	fs := flag.NewFlagSet("server-test", flag.ContinueOnError)
	opts := registerFlags(fs)
	if err := fs.Parse(append([]string{"-addr", "127.0.0.1:0"}, args...)); err != nil {
		t.Fatal(err)
	}
	started := make(chan string, 1)
	errc = make(chan error, 1)
	go func() { errc <- run(ctx, opts, started) }()
	select {
	case addr := <-started:
		return "http://" + addr, errc
	case err := <-errc:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("run never started serving")
	}
	return "", nil
}

// TestFlagSurface pins the size of the flag set and that a removed flag
// stays removed: it fails the parse instead of being ignored.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("server-test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerFlags(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 27 {
		t.Errorf("%d flags registered, want 27", n)
	}
	if err := fs.Parse([]string{"-scan-frame-bytes", "1"}); err == nil {
		t.Error("-scan-frame-bytes parsed, want an unknown-flag error")
	}
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s never became ready", base)
}

// TestSigtermDrainCheckpointClose is the shutdown e2e: a real SIGTERM
// flips /readyz to 503 while the listener is still accepting (the drain
// grace), the in-flight query completes with a full 200 response, and
// the final checkpoint lands — the next open replays an empty log.
func TestSigtermDrainCheckpointClose(t *testing.T) {
	dataDir := t.TempDir()
	dataFile := writeTestData(t, 300)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	base, errc := startRun(t, ctx,
		"-data", dataFile, "-data-dir", dataDir,
		"-drain-grace", "600ms", "-query-timeout", "60s", "-budget", "0")
	waitReady(t, base)

	// One durable write before shutdown, so the final checkpoint has a
	// non-empty log to absorb.
	resp, err := http.PostForm(base+"/update",
		url.Values{"update": {`INSERT DATA { <http://x/marker> <http://x/p> <http://x/om> . }`}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// The in-flight query: a 301x301 cross product, fired just before
	// the signal; it must complete during the drain.
	type queryResult struct {
		status int
		body   string
		err    error
	}
	qc := make(chan queryResult, 1)
	go func() {
		q := `SELECT ?a ?b WHERE { ?a <http://x/p> ?x . ?b <http://x/p> ?y }`
		resp, err := http.Get(base + "/sparql?query=" + url.QueryEscape(q))
		if err != nil {
			qc <- queryResult{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		qc <- queryResult{status: resp.StatusCode, body: string(body), err: err}
	}()
	time.Sleep(30 * time.Millisecond)

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// During the drain grace the listener still accepts, but /readyz
	// answers 503 on a fresh connection — the deregistration signal.
	sawNotReady := false
	graceDeadline := time.Now().Add(550 * time.Millisecond)
	for time.Now().Before(graceDeadline) {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			break // listener closed: grace over
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			sawNotReady = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawNotReady {
		t.Error("/readyz never answered 503 while the listener was still open")
	}

	qr := <-qc
	if qr.err != nil {
		t.Fatalf("in-flight query failed during drain: %v", qr.err)
	}
	if qr.status != http.StatusOK {
		t.Fatalf("in-flight query = %d during drain: %s", qr.status, qr.body)
	}
	if !strings.Contains(qr.body, "http://x/s299") {
		t.Error("in-flight query response is missing expected bindings")
	}

	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run never exited after SIGTERM")
	}

	// The final checkpoint landed: recovery replays an empty log and the
	// pre-shutdown write is in the snapshot.
	db, err := rdfshapes.Open(dataDir)
	if err != nil {
		t.Fatalf("reopening data dir: %v", err)
	}
	defer db.Close()
	st, ok := db.DurabilityStats()
	if !ok {
		t.Fatal("reopened DB is not durable")
	}
	if !st.Recovered || st.RecordsReplayed != 0 {
		t.Errorf("recovery stats = %+v, want recovered with 0 replayed records (checkpoint absorbed the log)", st)
	}
	if st.Generation < 2 {
		t.Errorf("generation = %d, want >= 2 after the final checkpoint", st.Generation)
	}
	ok2, err := db.Ask(`ASK { <http://x/marker> <http://x/p> <http://x/om> }`)
	if err != nil || !ok2 {
		t.Errorf("pre-shutdown write missing after recovery (ok=%v err=%v)", ok2, err)
	}
}

// documentedFamilies returns the metric inventory table of
// docs/OBSERVABILITY.md as name → type.
func documentedFamilies(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "| `rdfshapes_") {
			cells := strings.Split(line, "|")
			out[strings.Trim(strings.TrimSpace(cells[1]), "`")] = strings.TrimSpace(cells[2])
		}
	}
	return out
}

// assertServes checks that body declares every documented family whose
// name has prefix, with its documented type.
func assertServes(t *testing.T, role, body string, documented map[string]string, prefix string) {
	t.Helper()
	n := 0
	for name, typ := range documented {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		n++
		if want := "# TYPE " + name + " " + typ + "\n"; !strings.Contains(body, want) {
			t.Errorf("%s metrics lack %q:\n%s", role, want, body)
		}
	}
	if n == 0 {
		t.Errorf("docs/OBSERVABILITY.md lists no %s* family", prefix)
	}
}

// TestReplicaAndRouterModes wires the three roles through the real flag
// surface: a durable primary, a -replica-of follower, and a
// -router-primary router spreading reads.
func TestReplicaAndRouterModes(t *testing.T) {
	dataFile := writeTestData(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	primary, perr := startRun(t, ctx, "-data", dataFile, "-data-dir", t.TempDir())
	waitReady(t, primary)
	replica, rerr := startRun(t, ctx, "-replica-of", primary, "-replica-poll", "5ms")
	waitReady(t, replica)
	router, terr := startRun(t, ctx,
		"-router-primary", primary, "-router-replicas", replica,
		"-max-staleness", "10s", "-check-interval", "10ms")

	// Write through the router; it must land on the primary and reach
	// the replica through the log stream.
	resp, err := http.PostForm(router+"/update",
		url.Values{"update": {`INSERT DATA { <http://x/via-router> <http://x/p> <http://x/ov> . }`}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("router update = %d: %s", resp.StatusCode, body)
	}
	resp.Body.Close()

	q := "/sparql?query=" + url.QueryEscape(`SELECT ?s WHERE { <http://x/via-router> <http://x/p> ?s }`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(replica + q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && strings.Contains(string(body), "http://x/ov") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never saw the routed write: %d %s", resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A read through the router succeeds (from whichever healthy
	// backend), and the router's own metrics endpoint serves.
	resp, err = http.Get(router + q)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "http://x/ov") {
		t.Fatalf("router read = %d: %s", resp.StatusCode, body)
	}
	resp, err = http.Get(router + "/router/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "rdfshapes_router") {
		t.Fatalf("router metrics = %d: %s", resp.StatusCode, body)
	}
	// Each role serves the families docs/OBSERVABILITY.md lists for it,
	// with the documented type (the primary's are pinned in
	// internal/server).
	documented := documentedFamilies(t)
	assertServes(t, "router", string(body), documented, "rdfshapes_router_")
	resp, err = http.Get(replica + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	assertServes(t, "replica", string(body), documented, "rdfshapes_repl_")
	if !strings.Contains(string(body), "rdfshapes_repl_records_applied_total 1\n") {
		t.Errorf("replica does not count the routed write as applied:\n%s", body)
	}

	// Writes on the replica are refused with 403.
	resp, err = http.PostForm(replica+"/update",
		url.Values{"update": {`INSERT DATA { <http://x/nope> <http://x/p> <http://x/o> . }`}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica update = %d, want 403", resp.StatusCode)
	}

	cancel()
	for _, c := range []chan error{perr, rerr, terr} {
		select {
		case err := <-c:
			if err != nil {
				t.Errorf("run returned %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("a run never exited after cancel")
		}
	}
}
