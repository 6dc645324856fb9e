package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer
// list. Bound is the share of the base median by which an end-to-end
// metric may worsen; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type template struct {
	Name  string `json:"name"`
	Query string `json:"query"`
}

type updateSpec struct {
	RatePerS        float64 `json:"rate_per_s"`
	TriplesPerBatch int     `json:"triples_per_batch"`
	LiveBatches     int     `json:"live_batches"`
}

// workloadSpec is one traffic mix and the server configuration it runs
// against; everything a later change could be tempted to tune is frozen
// here, in workloads/workloads.json.
type workloadSpec struct {
	Name      string   `json:"name"`
	Templates []string `json:"templates"`
	Zipf      float64  `json:"zipf"`
	Block     int      `json:"block"`
	// OpenSliceBlocks and ClosedSliceBlocks size one slice of each
	// phase, in blocks; the machine's speed is read between slices.
	OpenSliceBlocks   int         `json:"open_slice_blocks"`
	ClosedSliceBlocks int         `json:"closed_slice_blocks"`
	RateQPS           float64     `json:"rate_qps"`
	Clients           int         `json:"clients"`
	Durable           bool        `json:"durable,omitempty"`
	ExtraFlags        []string    `json:"extra_flags,omitempty"`
	Updates           *updateSpec `json:"updates,omitempty"`
	TraceRequests     int         `json:"trace_requests"`
}

type workloadsFile struct {
	Dataset struct {
		Name       string `json:"name"`
		Scale      int    `json:"scale"`
		Seed       int64  `json:"seed"`
		SmokeScale int    `json:"smoke_scale"`
	} `json:"dataset"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	BaseFlags  []string              `json:"base_flags"`
	Prefix     string                `json:"prefix"`
	Templates  map[string][]template `json:"templates"`
	Workloads  []workloadSpec        `json:"workloads"`
}

// config is everything the runner reads from disk.
type config struct {
	root  string // repository root (holds BENCHMARK.json)
	bench benchmarkFile
	wl    workloadsFile
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json, so the runner works from the root (bash
// benchmark/run.sh) and from benchmark/ (go run -C benchmark .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func loadConfig() (*config, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	c := &config{root: root}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &c.bench); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(root, "benchmark", "workloads", "workloads.json"), &c.wl); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *config) workload(name string) (*workloadSpec, error) {
	for i := range c.wl.Workloads {
		if c.wl.Workloads[i].Name == name {
			return &c.wl.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// templatesOf returns the workload's templates in rank order: the named
// sets concatenated in the order the spec lists them.
func (c *config) templatesOf(w *workloadSpec) []template {
	var out []template
	for _, set := range w.Templates {
		out = append(out, c.wl.Templates[set]...)
	}
	return out
}

// serverFlags is the full pinned flag list of a workload's server,
// minus -addr and -data-dir, which the runner picks per start.
func (c *config) serverFlags(w *workloadSpec, scale int) []string {
	flags := []string{
		"-dataset", c.wl.Dataset.Name,
		"-scale", strconv.Itoa(scale),
		"-seed", strconv.FormatInt(c.wl.Dataset.Seed, 10),
	}
	flags = append(flags, c.wl.BaseFlags...)
	return append(flags, w.ExtraFlags...)
}

// outDir is where results, traces and temporary data directories go.
func (c *config) outDir() string { return filepath.Join(c.root, "benchmark", "out") }

// buildDir holds the binaries the runner builds from the tree.
func (c *config) buildDir() string { return filepath.Join(c.root, ".bench_build") }
