package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the time source of the load loops; tests substitute a fake.
// Times are offsets from an arbitrary origin.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type realClock struct{ origin time.Time }

func newRealClock() realClock { return realClock{origin: time.Now()} }

func (c realClock) Now() time.Duration { return time.Since(c.origin) }

// A wait ends in three steps, each finer than the last. time.Sleep
// parks the goroutine and frees its P, but in an otherwise idle Go
// process it wakes through epoll_wait, whose timeout is in whole
// milliseconds. nanosleep is good to 70–140 µs here, but it is a
// blocking system call that keeps the goroutine's P until the runtime's
// monitor takes it back, so it is kept short (and main raises
// GOMAXPROCS by one P per sender). The last stretch is spun. Together
// they cost a few per cent of one core and send on time; a lookup's
// whole latency is 300 µs, so nothing coarser would do.
const (
	coarseWindow = 2 * time.Millisecond
	spinWindow   = 250 * time.Microsecond
)

func (c realClock) SleepUntil(t time.Duration) {
	if d := t - c.Now() - coarseWindow; d > 0 {
		time.Sleep(d)
	}
	for {
		d := t - c.Now() - spinWindow
		if d <= 0 {
			break
		}
		// A signal (the runtime preempts goroutines with them) ends the
		// sleep early with EINTR; the loop sleeps the remainder.
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
	for c.Now() < t {
	}
}

// sample is the timing of one request. Free is when a connection was
// ready to take it, Sent when the send began, Done when the response
// had been read and checked.
type sample struct {
	Index                 int
	Due, Free, Sent, Done time.Duration
}

// latency is measured from the due time, so the wait a slow response
// imposes on the requests queued behind it is counted.
func (s sample) latency() time.Duration { return s.Done - s.Due }

// lag is how late the generator itself was: the delay between the
// moment the request was due and a connection was free, and the send.
// Time spent waiting for a busy connection is the server's and is in
// latency, not here.
func (s sample) lag() time.Duration {
	ready := s.Due
	if s.Free > ready {
		ready = s.Free
	}
	return s.Sent - ready
}

// openLoop sends requests 0..n-1 over the given number of connections,
// request i due at start + i*interval whether or not earlier ones have
// completed. send performs request i on connection conn and returns
// once the response has been read; the check it returns, if any, runs
// after the request's clock has stopped, so the rig's own answer
// checking delays the connection but is in no latency.
func openLoop(clk clock, conns, n int, start, interval time.Duration, send func(conn, i int) (check func())) []sample {
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := sample{Index: i, Due: start + time.Duration(i)*interval, Free: clk.Now()}
				clk.SleepUntil(s.Due)
				s.Sent = clk.Now()
				check := send(c, i)
				s.Done = clk.Now()
				samples[i] = s
				if check != nil {
					check()
				}
			}
		}(c)
	}
	wg.Wait()
	return samples
}

// closedLoop keeps conns clients busy for exactly n requests: each
// client sends its next request as soon as its previous one completes.
func closedLoop(clk clock, conns, n int, send func(conn, i int) (check func())) []sample {
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := sample{Index: i, Sent: clk.Now()}
				s.Due, s.Free = s.Sent, s.Sent
				check := send(c, i)
				s.Done = clk.Now()
				samples[i] = s
				if check != nil {
					check()
				}
			}
		}(c)
	}
	wg.Wait()
	return samples
}
