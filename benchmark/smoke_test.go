package main

import (
	"context"
	"flag"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs the whole benchmark small — every workload end to end
// against a real server, the oracle, churn's kill/restart leg and a
// traced run. It builds and starts servers, so it only runs when asked
// for by name: go test -run Smoke.
func TestSmoke(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "Smoke") {
		t.Skip("starts servers; run with -run Smoke")
	}
	c := loadTestConfig(t)
	out := filepath.Join(t.TempDir(), "smoke.json")
	if _, err := runWorkloads(context.Background(), c, invocation{seed: 1, smoke: true, repeat: 1, out: out}); err != nil {
		t.Fatal(err)
	}
	var f resultsFile
	if err := readJSON(out, &f); err != nil {
		t.Fatal(err)
	}
	if want := len(c.wl.Workloads) + 1; len(f.Runs) != want {
		t.Errorf("%d runs in the results file, want %d", len(f.Runs), want)
	}
}
