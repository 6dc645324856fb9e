package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricValue is one reported number. Samples is how many observations
// a percentile or median was taken over.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runResult is one run of one workload: the metrics BENCHMARK.json
// names, the rig's own diagnostics, and the configuration that
// produced them.
type runResult struct {
	Workload    string                 `json:"workload"`
	Trace       bool                   `json:"trace"`
	Seed        int64                  `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Scale       int                    `json:"scale"`
	ServerFlags []string               `json:"server_flags"`
	GOMAXPROCS  int                    `json:"gomaxprocs"`
	RateQPS     float64                `json:"rate_qps"`
	Clients     int                    `json:"clients"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	Diagnostics map[string]metricValue `json:"diagnostics,omitempty"`
	Errors      []string               `json:"errors,omitempty"`
}

// runOptions sizes a run; smoke shrinks everything that does not change
// which code is exercised.
type runOptions struct {
	seed      int64
	seconds   float64
	scale     int
	setupRuns int
	smoke     bool
}

const (
	// openShare of a run's measured time is the open-loop phase, the
	// rest the closed loop (the 25 s : 15 s split of the design).
	openShare = 0.625
	// maxLagShare invalidates a run whose generator lateness (p95)
	// exceeds this share of the median latency: its numbers would
	// measure the generator.
	maxLagShare = 0.20
	// conns is the number of connections the rig opens, in total.
	conns = 2
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fail records a check that did not hold; the first few are kept
// verbatim for the report.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// slice is one stretch of a phase: a whole number of blocks, so every
// slice of a phase holds the same multiset of templates, with the
// machine's speed read before and after it.
type slice struct {
	reqs    []request
	obs     []observed
	samples []sample
	start   time.Duration
	speed   float64 // mean of the readings on either side
}

func (s *slice) ok() (n int) {
	for _, o := range s.obs {
		if o.Outcome == outcomeOK {
			n++
		}
	}
	return n
}

// elapsed is the time from the slice's start to its last response.
func (s *slice) elapsed() time.Duration {
	var end time.Duration
	for _, x := range s.samples {
		if x.Done > end {
			end = x.Done
		}
	}
	return end - s.start
}

// checkAnswer holds one answer against the oracle's. While updates are
// live an answer may only grow (writes add graduate students and delete
// nothing of the base data), and an answer with the base row count must
// be the base answer.
func (r *runResult) checkAnswer(req request, got, want digest, updatesLive bool) {
	switch {
	case updatesLive && got.Rows > want.Rows:
	case got.Rows != want.Rows || got.Sum != want.Sum:
		r.fail("%s: answer differs from the oracle (rows %d, want %d): %s", req.Template, got.Rows, want.Rows, req.Text)
	}
}

// verify compares every read response of a slice with the oracle.
func (r *runResult) verify(or *oracle, s *slice, updatesLive bool) error {
	for i, o := range s.obs {
		req := s.reqs[i]
		if o.Outcome != outcomeOK {
			r.fail("%s: %v: %s", req.Template, o.Outcome, req.Text)
			continue
		}
		want, err := or.answer(req.Text)
		if err != nil {
			return err
		}
		if want.Rows == 0 {
			return fmt.Errorf("template %s drew an instance with an empty answer: %s", req.Template, req.Text)
		}
		r.checkAnswer(req, o.Digest, want, updatesLive)
	}
	return nil
}

// phasePlan sizes the phases of a run from the workload's frozen rate
// and slice sizes and the seconds to measure.
type phasePlan struct {
	openSlices      int
	openN, closedN  int           // requests per slice
	interval        time.Duration // between open-loop due times
	closedBudget    time.Duration
	minClosedSlices int
}

func planPhases(w *workloadSpec, opt runOptions) phasePlan {
	p := phasePlan{
		openN:           w.OpenSliceBlocks * w.Block,
		closedN:         w.ClosedSliceBlocks * w.Block,
		interval:        time.Duration(float64(time.Second) / w.RateQPS),
		minClosedSlices: 3,
	}
	if opt.smoke {
		// Half a second of open loop and one block of closed loop reach
		// the same code as the full sizes do.
		p.openN = int(math.Ceil(w.RateQPS / 2))
		p.closedN = w.Block
		p.minClosedSlices = 1
	}
	p.openSlices = max(1, int(math.Round(w.RateQPS*openShare*opt.seconds/float64(p.openN))))
	openDuration := time.Duration(p.openSlices*p.openN) * p.interval
	p.closedBudget = time.Duration(opt.seconds*float64(time.Second)) - openDuration
	return p
}

// runE2E measures one workload end to end against a real server
// subprocess, tracing off.
func runE2E(ctx context.Context, c *config, w *workloadSpec, opt runOptions) (*runResult, error) {
	res := &runResult{
		Workload: w.Name, Seed: opt.seed, Seconds: opt.seconds, Scale: opt.scale,
		ServerFlags: c.serverFlags(w, opt.scale), GOMAXPROCS: c.wl.GOMAXPROCS,
		RateQPS: w.RateQPS, Clients: w.Clients,
		Metrics: map[string]metricValue{}, Diagnostics: map[string]metricValue{},
	}
	bin, err := buildServer(ctx, c)
	if err != nil {
		return nil, err
	}

	// The benchmark's own copy of the dataset is loaded twice: now, to
	// list the departments the stream draws from, and after the server
	// has stopped, to check the answers. In between it is released, so
	// that this process's heap is small while it measures: its garbage
	// collector shares the two cores with the server.
	ents, err := loadEntities(c, opt.scale)
	if err != nil {
		return nil, err
	}
	tmpls := c.templatesOf(w)
	stream := newReadStream(opt.seed, c.wl.Prefix, tmpls, w.Zipf, w.Block, ents)
	plan := planPhases(w, opt)
	// A reading loads as many cores as the workload's clients keep busy.
	speed := newSpeedometer(w.Clients)

	// Set-up: exec → first /readyz 200, several times over, each stated
	// at nominal machine speed; the last server stays for the run.
	tmp := filepath.Join(c.outDir(), "tmp", fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	defer os.RemoveAll(tmp)
	var srv *serverProc
	var flags []string
	var setups, rawSetups []float64
	var writer *writeRun
	// reading is the machine's speed factor, taken once the server (if
	// one is up) has gone quiet, with the write stream (if any) paused.
	reading := func() float64 {
		if writer != nil {
			writer.pause()
			defer writer.resume()
		}
		if srv != nil {
			srv.settle(500 * time.Millisecond)
		}
		runtime.GC() // so that no collection of our own starts mid-reading
		return speed.factor()
	}
	factor := reading()
	for k := 0; k < opt.setupRuns; k++ {
		if srv != nil {
			srv.kill()
		}
		flags = res.ServerFlags
		if w.Durable {
			dir := filepath.Join(tmp, fmt.Sprintf("data%d", k))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			flags = append(append([]string(nil), flags...), "-data-dir", dir)
		}
		if srv, err = startServer(ctx, bin, flags, c.wl.GOMAXPROCS); err != nil {
			return nil, err
		}
		after := reading()
		rawSetups = append(rawSetups, srv.setup.Seconds())
		setups = append(setups, srv.setup.Seconds()/((factor+after)/2))
		factor = after
	}
	defer func() { srv.kill() }()
	failRun := func(err error) (*runResult, error) {
		return nil, fmt.Errorf("%w\nserver stderr tail:\n%s", err, srv.stderr)
	}

	client := newHTTPClient(srv.addr, conns)
	defer client.close()
	clk := newRealClock()
	query := func(s *slice) func(conn, i int) func() {
		return func(conn, i int) func() {
			resp := client.roundTrip(conn, "/sparql", queryType, s.reqs[i].Text)
			return func() { s.obs[i] = resp.observe(true) }
		}
	}
	newSlice := func(n int) *slice {
		return &slice{reqs: stream.take(n), obs: make([]observed, n)}
	}

	// churn's write stream runs on the second connection from the first
	// measured request to the last.
	if w.Updates != nil {
		every := time.Duration(float64(time.Second) / w.Updates.RatePerS)
		writer = newWriteRun(client, conns-1, newUpdateStream(opt.seed, *w.Updates, ents), every)
	}

	// Warm-up: plan caches, lazy set-up, connections. Discarded, but
	// drawn from the same stream so the measured slices start on a block
	// boundary.
	warm := newSlice(plan.closedN)
	closedLoop(clk, w.Clients, plan.closedN, query(warm))
	factor = reading()
	if writer != nil {
		writer.start(clk)
	}

	// Open loop: whole blocks at the frozen rate, each request timed from
	// its due time.
	var open, closed []*slice
	for k := 0; k < plan.openSlices; k++ {
		if err := ctx.Err(); err != nil {
			return failRun(err)
		}
		s := newSlice(plan.openN)
		s.start = clk.Now() + 5*time.Millisecond
		s.samples = openLoop(clk, w.Clients, plan.openN, s.start, plan.interval, query(s))
		after := reading()
		s.speed, factor = (factor+after)/2, after
		open = append(open, s)
	}

	// Closed loop: every client sends its next request on completion,
	// one slice after another until the run's seconds are spent.
	closedStart := clk.Now()
	for len(closed) < plan.minClosedSlices || clk.Now()-closedStart < plan.closedBudget {
		if err := ctx.Err(); err != nil {
			return failRun(err)
		}
		s := newSlice(plan.closedN)
		s.start = clk.Now()
		s.samples = closedLoop(clk, w.Clients, plan.closedN, query(s))
		after := reading()
		s.speed, factor = (factor+after)/2, after
		closed = append(closed, s)
	}
	if writer != nil {
		writer.stop()
	}
	rss, err := srv.rssPeakMB()
	if err != nil {
		return failRun(err)
	}

	// Correctness legs that need the server: churn's clean-up, the
	// unchanged-answers check and the kill/restart check.
	var after *slice
	if writer != nil {
		if after, err = writer.finish(ctx, clk, open[0].reqs, bin, flags, c.wl.GOMAXPROCS, &srv); err != nil {
			return failRun(err)
		}
	}
	srv.kill()

	or := loadOracle(c, opt.scale)
	if after != nil {
		// With every batch deleted again, answers equal their pre-run
		// values exactly.
		if err := res.verify(or, after, false); err != nil {
			return failRun(err)
		}
	}

	// Latency percentiles are taken per slice and the median over slices
	// is reported: slices hold the same templates, so they are samples
	// of one distribution, and one stall of the sandbox spoils one slice
	// instead of the run's whole tail.
	var p50s, p95s, rawLat, lags []float64
	rejected := 0
	all := append(append([]*slice(nil), open...), closed...)
	for _, s := range all {
		res.Attempted += len(s.reqs)
		if err := res.verify(or, s, writer != nil); err != nil {
			return failRun(err)
		}
		for _, o := range s.obs {
			if o.Outcome == outcomeRejected {
				rejected++
			}
		}
	}
	for _, s := range open {
		var lat []float64
		for _, x := range s.samples {
			lags = append(lags, ms(x.lag()))
			if s.obs[x.Index].Outcome == outcomeOK {
				rawLat = append(rawLat, ms(x.latency()))
				lat = append(lat, ms(x.latency())/s.speed)
			}
		}
		if len(lat) > 0 {
			p50s = append(p50s, percentile(lat, 50))
			p95s = append(p95s, percentile(lat, 95))
		}
	}
	var qps, rawQPS []float64
	closedOK := 0
	for _, s := range closed {
		raw := float64(s.ok()) / s.elapsed().Seconds()
		rawQPS = append(rawQPS, raw)
		qps = append(qps, raw*s.speed)
		closedOK += s.ok()
	}
	if len(rawLat) == 0 {
		return failRun(fmt.Errorf("no OK response in the open-loop phase; first errors: %v", res.Errors))
	}
	p50, lagP95 := percentile(rawLat, 50), percentile(lags, 95)

	res.Metrics["setup_s"] = metricValue{median(setups), "s", len(setups)}
	res.Metrics["throughput_qps"] = metricValue{median(qps), "1/s", closedOK}
	res.Metrics["latency_p50_ms"] = metricValue{median(p50s), "ms", len(rawLat)}
	res.Metrics["latency_p95_ms"] = metricValue{median(p95s), "ms", len(rawLat)}
	res.Metrics["rss_peak_mb"] = metricValue{rss, "MB", 1}

	d := res.Diagnostics
	speeds := make([]float64, len(all))
	for i, s := range all {
		speeds[i] = s.speed
	}
	d["machine.speed_factor_p50"] = metricValue{median(speeds), "ratio", len(speeds)}
	d["raw.setup_s"] = metricValue{median(rawSetups), "s", len(rawSetups)}
	d["raw.throughput_qps"] = metricValue{median(rawQPS), "1/s", closedOK}
	d["raw.latency_p50_ms"] = metricValue{p50, "ms", len(rawLat)}
	d["raw.latency_p95_ms"] = metricValue{percentile(rawLat, 95), "ms", len(rawLat)}
	d["client.sched_lag_p95_ms"] = metricValue{lagP95, "ms", len(lags)}
	d["client.latency_p99_ms"] = metricValue{percentile(rawLat, 99), "ms", len(rawLat)}
	d["server.rejected_share"] = metricValue{float64(rejected) / float64(res.Attempted), "ratio", res.Attempted}
	if writer != nil {
		writer.report(res)
	}
	d["failed_share"] = metricValue{float64(res.Failed) / float64(res.Attempted), "ratio", res.Attempted}
	res.Correct = res.Failed == 0

	if lagP95 > maxLagShare*p50 {
		return nil, fmt.Errorf("invalid run: client.sched_lag_p95_ms %.3f exceeds %.0f%% of the raw latency_p50_ms %.3f; the numbers would measure the generator",
			lagP95, maxLagShare*100, p50)
	}
	return res, nil
}
