package main

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json must stay inside the driver's contract; a file outside
// it is refused before a single run.
func TestBenchmarkFileMeetsTheContract(t *testing.T) {
	c := loadTestConfig(t)
	b := c.bench
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	// 4 + 22 runs per workload, each the measured seconds plus set-up,
	// checks and the traced probes; two cold builds on top.
	const perRunOverhead, builds, budget = 10, 2 * 60, 3420
	if total := (4+22*len(b.Workloads))*(b.RunSeconds+perRunOverhead) + builds; total > budget {
		t.Errorf("the driver's runs would take about %d s, over its %d s", total, budget)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the grammar", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range b.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, err := c.workload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json names workload %s, workloads.json does not define it", w.Name)
		}
	}
	if len(b.Workloads) != len(c.wl.Workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, workloads.json defines %d", len(b.Workloads), len(c.wl.Workloads))
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range b.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	for _, m := range b.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricDef(nil), b.EndToEnd...), b.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the grammar", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths %v", b.Paths)
	}
}

// emitted collects the metric names the runner's source can report: the
// literal first argument of every put and timeIt call, and every
// literal key stored into res.Metrics.
func emitted(t *testing.T, file string, res ...string) []string {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, re := range res {
		for _, m := range regexp.MustCompile(re).FindAllStringSubmatch(string(src), -1) {
			set[m[1]] = true
		}
	}
	var out []string
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Every metric the runner can emit is in BENCHMARK.json and the other
// way round. (A run checks the same thing about what it did emit.)
func TestRunnerAndBenchmarkFileNameTheSameMetrics(t *testing.T) {
	c := loadTestConfig(t)
	listed := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, tc := range []struct {
		what       string
		have, want []string
	}{
		{"end_to_end", emitted(t, "e2e.go", `res\.Metrics\["([^"]+)"\]`), listed(c.bench.EndToEnd)},
		{"per_layer", emitted(t, "layers.go", `\bput\("([^"]+)"`, `\btimeIt\("([^"]+)"`), listed(c.bench.PerLayer)},
	} {
		if strings.Join(tc.have, " ") != strings.Join(tc.want, " ") {
			t.Errorf("%s:\n runner emits       %v\n BENCHMARK.json has %v", tc.what, tc.have, tc.want)
		}
	}
}

func TestWorkloadSpecsAreComplete(t *testing.T) {
	c := loadTestConfig(t)
	for _, w := range c.wl.Workloads {
		if w.RateQPS <= 0 || w.Block <= 0 || w.Clients < 1 || w.Clients > 2 || w.TraceRequests <= 0 {
			t.Errorf("%s: incomplete spec %+v", w.Name, w)
		}
		if len(c.templatesOf(&w)) == 0 {
			t.Errorf("%s: no templates", w.Name)
		}
		if w.Updates != nil && w.Clients != 1 {
			t.Errorf("%s: the write stream takes one of the two connections, so reads get one", w.Name)
		}
		if _, _, err := facadeConfig(c.serverFlags(&w, 1)); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}
