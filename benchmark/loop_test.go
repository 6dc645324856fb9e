package main

import (
	"testing"
	"time"
)

// fakeClock is a single-goroutine clock: time passes only when someone
// sleeps or the test's send function advances it. overshoot, when set,
// makes SleepUntil wake late once, like a stalled sender.
type fakeClock struct {
	now       time.Duration
	overshoot map[time.Duration]time.Duration // by target time
}

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
	c.now += c.overshoot[t]
}

const tick = time.Millisecond

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	// Due every 10 ms, each request takes 25 ms on the one connection:
	// the backlog grows and every request after the first is sent late
	// through no fault of the generator.
	samples := openLoop(clk, 1, 4, 0, 10*tick, func(_, _ int) func() {
		clk.now += 25 * tick
		return nil
	})
	wantLatency := []time.Duration{25 * tick, 40 * tick, 55 * tick, 70 * tick}
	for i, s := range samples {
		if s.Due != time.Duration(i)*10*tick {
			t.Errorf("request %d due at %v", i, s.Due)
		}
		if s.latency() != wantLatency[i] {
			t.Errorf("request %d latency %v, want %v (from its due time, not its send time)", i, s.latency(), wantLatency[i])
		}
		if s.lag() != 0 {
			t.Errorf("request %d lag %v: waiting for a busy connection is the server's time, not the generator's", i, s.lag())
		}
	}
}

func TestOpenLoopReportsAStalledSenderAsLag(t *testing.T) {
	// The sender oversleeps request 2's due time by 7 ms.
	clk := &fakeClock{overshoot: map[time.Duration]time.Duration{20 * tick: 7 * tick}}
	samples := openLoop(clk, 1, 4, 0, 10*tick, func(_, _ int) func() {
		clk.now += 2 * tick
		return nil
	})
	for i, s := range samples {
		wantLag, wantLatency := time.Duration(0), 2*tick
		if i == 2 {
			wantLag, wantLatency = 7*tick, 9*tick
		}
		if s.lag() != wantLag {
			t.Errorf("request %d lag %v, want %v", i, s.lag(), wantLag)
		}
		if s.latency() != wantLatency {
			t.Errorf("request %d latency %v, want %v: the stall must be counted, not hidden", i, s.latency(), wantLatency)
		}
	}
}

func TestCheckRunsAfterTheClockStops(t *testing.T) {
	clk := &fakeClock{}
	samples := openLoop(clk, 1, 2, 0, 100*tick, func(_, _ int) func() {
		clk.now += 3 * tick
		return func() { clk.now += 50 * tick } // answer checking
	})
	for i, s := range samples {
		if s.latency() != 3*tick {
			t.Errorf("request %d latency %v includes the rig's own checking", i, s.latency())
		}
	}
}

func TestClosedLoopSendsOnCompletion(t *testing.T) {
	clk := &fakeClock{}
	samples := closedLoop(clk, 1, 3, func(_, _ int) func() {
		clk.now += 4 * tick
		return nil
	})
	if len(samples) != 3 {
		t.Fatalf("%d requests, want 3", len(samples))
	}
	for i, s := range samples {
		if s.Index != i || s.Sent != time.Duration(i)*4*tick || s.latency() != 4*tick {
			t.Errorf("sample %d: %+v", i, s)
		}
	}
}
