// Command benchmark is the repository's benchmark: four serving
// workloads measured end to end against the tree's own cmd/server, and
// a traced run that times each layer from outside. See README.md.
//
//	bash benchmark/run.sh --workload joins --seed 1 --seconds 20 --trace 0   (the driver's form)
//	go run -C benchmark . -seed 1            every workload end to end
//	go run -C benchmark . -trace 1 -seed 1   every workload traced
//	go run -C benchmark . -smoke             all of it, small, in seconds
//	go run -C benchmark . -aa                the whole benchmark twice, compared
//	go run -C benchmark . -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// resultsFile is what a command writes under benchmark/out/: every run
// it made, beside the environment that produced the numbers.
type resultsFile struct {
	Env  environment  `json:"env"`
	Runs []*runResult `json:"runs"`
}

type environment struct {
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs_benchmark"`
	Time       string `json:"time"`
}

func currentEnv(root string) environment {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		GoVersion: runtime.Version(), Commit: commit, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// invocation is what one command line asks to be run.
type invocation struct {
	workload string // "" is every workload
	seed     int64
	seconds  float64 // 0 is BENCHMARK.json's run_seconds
	traced   bool
	smoke    bool
	repeat   int
	out      string // results file
}

func main() {
	var inv invocation
	flag.StringVar(&inv.workload, "workload", "", "run one workload and end with the driver's JSON line (default: all workloads)")
	flag.Int64Var(&inv.seed, "seed", 1, "seed of the request stream; the dataset seed is fixed")
	flag.Float64Var(&inv.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.String("trace", "0", "1: the traced run (per-layer metrics); 0: end to end, tracing off")
	flag.BoolVar(&inv.smoke, "smoke", false, "scale 1 and sub-second phases: every workload end to end, the kill/restart leg and a traced run")
	flag.IntVar(&inv.repeat, "repeat", 1, "runs per workload")
	flag.StringVar(&inv.out, "out", "", "results file (default benchmark/out/results.json)")
	compare := flag.Bool("compare", false, "compare two results files given as arguments, applying BENCHMARK.json's bounds")
	aa := flag.Bool("aa", false, "run the whole benchmark twice on this tree and seed, then compare the two")
	flag.Parse()
	// One P per core for the work, plus one per sender: a sender waiting
	// for its next due time sits in nanosleep and holds its P meanwhile.
	runtime.GOMAXPROCS(runtime.NumCPU() + conns)
	if err := run(inv, *trace, *compare, *aa, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(inv invocation, trace string, compare, aa bool, args []string) error {
	c, err := loadConfig()
	if err != nil {
		return err
	}
	if trace != "0" && trace != "1" {
		return fmt.Errorf("-trace takes 0 or 1, not %q", trace)
	}
	inv.traced = trace == "1"
	// SIGINT and SIGTERM cancel ctx; every server is then killed and
	// reaped by the run that owns it before the command exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(c, args[0], args[1])
	case aa:
		return runAA(ctx, c, inv)
	}
	if inv.out == "" {
		inv.out = filepath.Join(c.outDir(), "results.json")
	}
	last, runErr := runWorkloads(ctx, c, inv)
	if inv.workload != "" && last != nil {
		if err := printContractLine(last); err != nil {
			return err
		}
	}
	return runErr
}

// runWorkloads makes the runs an invocation asks for, prints each and
// writes the results file. It returns the last completed run.
func runWorkloads(ctx context.Context, c *config, inv invocation) (*runResult, error) {
	names := []string{inv.workload}
	if inv.workload == "" {
		names = nil
		for _, w := range c.wl.Workloads {
			names = append(names, w.Name)
		}
	}
	opt := runOptions{seed: inv.seed, seconds: inv.seconds, scale: c.wl.Dataset.Scale, setupRuns: 5}
	if opt.seconds == 0 {
		opt.seconds = float64(c.bench.RunSeconds)
	}
	modes := []bool{inv.traced}
	if inv.smoke {
		opt = runOptions{seed: inv.seed, seconds: 1, scale: c.wl.Dataset.SmokeScale, setupRuns: 1, smoke: true}
		modes = []bool{false, true}
	}

	file := resultsFile{Env: currentEnv(c.root)}
	var last *runResult
	var runErr error
runs:
	for _, name := range names {
		w, err := c.workload(name)
		if err != nil {
			return nil, err
		}
		for _, traced := range modes {
			if inv.smoke && traced && w.Updates == nil {
				continue // one traced run, churn's, crosses every layer
			}
			for k := 0; k < inv.repeat; k++ {
				run := runE2E
				if traced {
					run = runTraced
				}
				r, err := run(ctx, c, w, opt)
				if err == nil {
					err = checkNames(c, r)
				}
				if err != nil {
					runErr = fmt.Errorf("%s: %w", name, err)
					break runs
				}
				printRun(r)
				file.Runs = append(file.Runs, r)
				last = r
				if !r.Correct {
					runErr = fmt.Errorf("%s: %d of %d operations failed: %s", name, r.Failed, r.Attempted, strings.Join(r.Errors, "; "))
					break runs
				}
			}
		}
	}
	if len(file.Runs) > 0 {
		if err := writeJSON(inv.out, file); err != nil {
			return last, err
		}
		fmt.Printf("results written to %s\n", inv.out)
	}
	return last, runErr
}

// checkNames holds the runner to BENCHMARK.json: a run reports exactly
// the metrics the file lists for its mode.
func checkNames(c *config, r *runResult) error {
	defs := c.bench.EndToEnd
	if r.Trace {
		defs = c.bench.PerLayer
	}
	want := map[string]string{}
	for _, d := range defs {
		want[d.Name] = d.Unit
	}
	for name, m := range r.Metrics {
		unit, ok := want[name]
		if !ok {
			return fmt.Errorf("runner reported %s, which BENCHMARK.json does not list", name)
		}
		if unit != m.Unit {
			return fmt.Errorf("%s reported in %s, BENCHMARK.json says %s", name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s is %v", name, m.Value)
		}
		delete(want, name)
	}
	for name := range want {
		return fmt.Errorf("BENCHMARK.json lists %s, which the runner did not report", name)
	}
	return nil
}

// printContractLine ends standard output with the one JSON object the
// driver reads: exactly the keys correct, attempted, failed, metrics.
func printContractLine(r *runResult) error {
	type contractMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]contractMetric{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = contractMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printRun prints every metric of a run by name, with unit and sample
// count, then the rig's diagnostics.
func printRun(r *runResult) {
	mode := "end to end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, scale %d, %.3gs) server: GOMAXPROCS=%d %s\n",
		r.Workload, mode, r.Seed, r.Scale, r.Seconds, r.GOMAXPROCS, strings.Join(r.ServerFlags, " "))
	printMetrics := func(ms map[string]metricValue, indent string) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := ms[n]
			fmt.Printf("%s%-32s %14.6g %-6s n=%d\n", indent, n, m.Value, m.Unit, m.Samples)
		}
	}
	printMetrics(r.Metrics, "  ")
	if len(r.Diagnostics) > 0 {
		fmt.Println("  diagnostics (not gated):")
		printMetrics(r.Diagnostics, "    ")
	}
	fmt.Printf("  attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Println("  error:", e)
	}
}
