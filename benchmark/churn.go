package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// writeRun is churn's write stream: an open loop of INSERT DATA /
// DELETE DATA requests on its own connection beside the read stream,
// each acknowledged update followed by the ASK that proves it visible.
type writeRun struct {
	client *httpClient
	conn   int
	us     *updateStream
	every  time.Duration

	stopping atomic.Bool
	done     chan struct{}
	// gate is held while an update is in flight, and by the rig while it
	// reads the machine's speed (pause), so that the reading sees an
	// idle server.
	gate sync.Mutex

	mu        sync.Mutex
	updates   int
	latencies []float64 // ms from due time to acknowledgement, OK updates
	failures  []string
	restart   time.Duration
}

func newWriteRun(client *httpClient, conn int, us *updateStream, every time.Duration) *writeRun {
	return &writeRun{client: client, conn: conn, us: us, every: every, done: make(chan struct{})}
}

// apply sends one update and checks its ASK, returning when the update
// was acknowledged.
func (w *writeRun) apply(clk clock, op updateOp) (acked time.Duration, err error) {
	o := w.client.update(w.conn, op.Text)
	acked = clk.Now()
	if o.Outcome != outcomeOK {
		return acked, fmt.Errorf("update failed (%v): %.80s", o.Outcome, op.Text)
	}
	return acked, w.client.ask(w.conn, op.Ask, op.Expect)
}

func (w *writeRun) note(err error) {
	if err != nil {
		w.mu.Lock()
		w.failures = append(w.failures, err.Error())
		w.mu.Unlock()
	}
}

// start begins the stream: update i is due at begin + i*every whether
// or not earlier ones were acknowledged in time, until stop. Time the
// rig held the stream paused is taken out of the schedule, so a pause
// is not charged to the server as latency.
func (w *writeRun) start(clk clock) {
	begin := clk.Now()
	go func() {
		defer close(w.done)
		for i := 0; !w.stopping.Load(); i++ {
			due := begin + time.Duration(i)*w.every
			clk.SleepUntil(due)
			if !w.gate.TryLock() {
				w.gate.Lock()
				late := clk.Now() - due
				begin, due = begin+late, due+late
			}
			acked, err := w.apply(clk, w.us.next())
			w.gate.Unlock()
			w.note(err)
			w.mu.Lock()
			w.updates++
			if err == nil {
				w.latencies = append(w.latencies, ms(acked-due))
			}
			w.mu.Unlock()
		}
	}()
}

// pause holds the stream between two updates until resume.
func (w *writeRun) pause() { w.gate.Lock() }

func (w *writeRun) resume() { w.gate.Unlock() }

// stop ends the stream and waits for its last update.
func (w *writeRun) stop() {
	w.stopping.Store(true)
	<-w.done
}

// finish runs the legs that follow the measured phases. It deletes
// every live batch and asks one instance of each template again: the
// returned slice must verify against the oracle exactly, as before the
// run. Then it acknowledges one more batch, SIGKILLs the server,
// restarts it on the same data directory and requires that batch to be
// readable. *srv is replaced by the restarted server.
func (w *writeRun) finish(ctx context.Context, clk clock, seen []request,
	bin string, flags []string, gomaxprocs int, srv **serverProc) (*slice, error) {
	for _, op := range w.us.drain() {
		_, err := w.apply(clk, op)
		w.note(err)
	}
	after := &slice{}
	checked := map[string]bool{}
	for _, r := range seen {
		if !checked[r.Template] {
			checked[r.Template] = true
			after.reqs = append(after.reqs, r)
			after.obs = append(after.obs, w.client.query(w.conn, r.Text))
		}
	}

	last := w.us.next()
	_, err := w.apply(clk, last)
	w.note(err)
	(*srv).kill()
	w.client.close()
	restarted, err := startServer(ctx, bin, flags, gomaxprocs)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	*srv = restarted
	w.restart = restarted.setup
	client := newHTTPClient(restarted.addr, 1)
	defer client.close()
	if err := client.ask(0, last.Ask, true); err != nil {
		w.note(fmt.Errorf("after SIGKILL and restart the last acknowledged batch is not readable: %w", err))
	}
	return after, nil
}

// report adds the write stream's numbers to the run: its failures count
// with the reads', its latencies are churn's own diagnostics.
func (w *writeRun) report(res *runResult) {
	res.Attempted += w.updates
	for _, f := range w.failures {
		res.fail("%s", f)
	}
	d := res.Diagnostics
	d["update_p50_ms"] = metricValue{percentile(w.latencies, 50), "ms", len(w.latencies)}
	d["update_p95_ms"] = metricValue{percentile(w.latencies, 95), "ms", len(w.latencies)}
	d["restart_ready_s"] = metricValue{w.restart.Seconds(), "s", 1}
}
