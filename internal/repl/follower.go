package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rdfshapes/internal/frame"
	"rdfshapes/internal/wal"
)

// Follower defaults.
const (
	DefaultPollInterval = 250 * time.Millisecond
	DefaultBackoffBase  = 50 * time.Millisecond
	DefaultBackoffMax   = 5 * time.Second
)

// FollowerConfig configures a Follower.
type FollowerConfig struct {
	// Primary is the primary's base URL (scheme://host:port).
	Primary string
	// Target applies shipped state; see the Target contract.
	Target Target
	// StartGen/StartSeq preset the replication cursor when the caller
	// already bootstrapped the target (the facade loads the initial
	// snapshot itself before constructing the DB). StartGen 0 makes the
	// follower's first sync a bootstrap.
	StartGen, StartSeq uint64
	// PollInterval is the tail cadence while healthy (default
	// DefaultPollInterval).
	PollInterval time.Duration
	// BackoffBase/BackoffMax bound the jittered exponential backoff
	// after a failed sync (defaults DefaultBackoffBase/DefaultBackoffMax).
	BackoffBase, BackoffMax time.Duration
	// Client is the HTTP client; nil selects a default with no overall
	// timeout (snapshot bodies can be large), relying on ctx and the
	// per-request idle timeout instead.
	Client *http.Client
	// Seed seeds the backoff jitter; 0 derives one from the clock.
	Seed int64
	// Logf, when set, receives follower lifecycle messages.
	Logf func(format string, args ...any)
}

// Follower tails a primary: bootstrap once, then poll for the log
// suffix after the cursor, applying every record through the Target.
// All exported methods are safe for concurrent use with Run.
type Follower struct {
	cfg    FollowerConfig
	client *http.Client

	rngMu sync.Mutex
	rng   *rand.Rand

	// syncMu serializes whole replication rounds: without it a manual
	// Sync and the Run loop's poll could both observe the same stale
	// cursor (e.g. a pruned generation) and each re-bootstrap.
	syncMu sync.Mutex

	mu           sync.Mutex
	gen          uint64 // cursor: generation the next poll asks for
	applied      uint64 // cursor: last sequence number applied
	primarySeq   uint64 // primary's last seq as of the last good poll
	bootstrapped bool
	connected    bool
	lastErr      string
	started      time.Time
	lastCaughtUp time.Time
	bootstraps   int64
	reconnects   int64
	tornStreams  int64
	records      int64
}

// NewFollower builds a Follower; Run starts it.
func NewFollower(cfg FollowerConfig) *Follower {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	f := &Follower{
		cfg:     cfg,
		client:  client,
		rng:     rand.New(rand.NewSource(seed)),
		started: time.Now(),
	}
	if cfg.StartGen > 0 {
		f.gen = cfg.StartGen
		f.applied = cfg.StartSeq
		f.bootstrapped = true
	}
	return f
}

// Run tails the primary until ctx is done: sync, sleep (the poll
// interval while healthy, jittered exponential backoff after a
// failure), repeat. It returns ctx.Err().
func (f *Follower) Run(ctx context.Context) error {
	failures := 0
	for {
		err := f.Sync(ctx)
		var delay time.Duration
		switch {
		case err == nil:
			failures = 0
			delay = f.cfg.PollInterval
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			failures++
			delay = f.backoffDelay(failures)
			f.logf("repl: sync failed (attempt %d, retrying in %v): %v", failures, delay, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
}

// Sync performs one replication round synchronously: bootstrap when the
// cursor is unset, then poll and apply until caught up or failed.
// Exposed so tests (and the facade's initial catch-up) can drive rounds
// deterministically.
// Rounds are mutually exclusive: a Sync concurrent with the Run loop
// waits for the in-flight round rather than acting on its stale cursor.
func (f *Follower) Sync(ctx context.Context) error {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	f.mu.Lock()
	booted := f.bootstrapped
	f.mu.Unlock()
	if !booted {
		if err := f.bootstrap(ctx); err != nil {
			return err
		}
	}
	for {
		again, err := f.poll(ctx)
		if err != nil || !again {
			return err
		}
	}
}

// Status snapshots the follower's state.
func (f *Follower) Status() StatusResponse {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := StatusResponse{
		Role:           "replica",
		Generation:     f.gen,
		AppliedSeq:     f.applied,
		PrimarySeq:     f.primarySeq,
		Connected:      f.connected,
		Bootstraps:     f.bootstraps,
		Reconnects:     f.reconnects,
		TornStreams:    f.tornStreams,
		RecordsApplied: f.records,
		LastError:      f.lastErr,
	}
	if f.primarySeq > f.applied {
		st.LagRecords = f.primarySeq - f.applied
	}
	// Staleness is the time since the replica last proved itself caught
	// up; before the first catch-up it is the follower's whole lifetime.
	since := f.lastCaughtUp
	if since.IsZero() {
		since = f.started
	}
	st.StalenessSeconds = time.Since(since).Seconds()
	return st
}

// bootstrap fetches the primary's snapshot, hands it to the target, and
// resets the cursor to (snapshot generation, 0).
func (f *Follower) bootstrap(ctx context.Context) error {
	gen, data, err := FetchSnapshot(ctx, f.client, f.cfg.Primary)
	if err != nil {
		f.fail(true, err)
		return err
	}
	if err := f.cfg.Target.Bootstrap(gen, data); err != nil {
		f.fail(false, err)
		return fmt.Errorf("repl: applying bootstrap snapshot: %w", err)
	}
	f.mu.Lock()
	f.gen = gen
	f.applied = 0
	f.bootstrapped = true
	f.bootstraps++
	f.connected = true
	f.lastErr = ""
	f.mu.Unlock()
	f.logf("repl: bootstrapped from snapshot generation %d", gen)
	return nil
}

// poll requests the cursor generation's log after the applied seq and
// applies it. The primary answers one generation per request, so again
// reports that the round is not over: the follower re-bootstrapped, or
// finished a generation older than the primary's and moved to the next.
// Only gen-1 and gen are retained, so a round crosses a rotation in at
// most two requests.
func (f *Follower) poll(ctx context.Context) (again bool, err error) {
	f.mu.Lock()
	gen, applied := f.gen, f.applied
	f.mu.Unlock()

	url := fmt.Sprintf("%s%s?gen=%d&from=%d", f.cfg.Primary, WALPath, gen, applied)
	resp, err := get(ctx, f.client, url)
	if err != nil {
		f.fail(true, err)
		return false, err
	}
	defer resp.Body.Close()

	target, _ := strconv.ParseUint(resp.Header.Get(HeaderSeq), 10, 64)
	primaryGen, _ := strconv.ParseUint(resp.Header.Get(HeaderGeneration), 10, 64)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// The cursor generation was checkpointed away while we lagged:
		// resume from a fresh snapshot.
		f.logf("repl: generation %d pruned on primary, re-bootstrapping", gen)
		return true, f.bootstrap(ctx)
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("repl: wal request failed: %s: %s", resp.Status, body)
		f.fail(true, err)
		return false, err
	}

	if target < applied {
		// The primary acknowledges fewer commits than we applied: it lost
		// acknowledged state (a SyncNever crash, or a rebuilt primary).
		// Our suffix never happened — replace everything.
		f.logf("repl: primary seq %d behind applied %d, re-bootstrapping", target, applied)
		return true, f.bootstrap(ctx)
	}

	body, err := io.ReadAll(resp.Body)
	if err != nil {
		// Connection cut mid-stream: apply whatever arrived whole, then
		// resume from the new cursor on the next round.
		f.fail(true, err)
		f.applyLog(body, gen)
		return false, err
	}
	if err := f.applyLog(body, gen); err != nil {
		if errors.Is(err, frame.ErrTorn) {
			f.mu.Lock()
			f.tornStreams++
			f.lastErr = err.Error()
			f.mu.Unlock()
		} else {
			f.fail(false, err)
		}
		return false, err
	}
	if err := f.cfg.Target.Flush(); err != nil {
		f.fail(false, err)
		return false, err
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	current := gen >= primaryGen
	if current {
		f.primarySeq = target
	}
	if f.applied < target {
		// The body was built in the same locked read as the target, so a
		// clean decode that still leaves us short means it was cut on a
		// record boundary: an incomplete round, in any generation.
		f.tornStreams++
		f.lastErr = fmt.Sprintf("incomplete stream: applied %d of %d", f.applied, target)
		return false, fmt.Errorf("repl: incomplete stream: applied %d, generation %d reaches %d", f.applied, gen, target)
	}
	if !current {
		// Generation gen is exhausted; the log continues in the next.
		f.gen = gen + 1
		return true, nil
	}
	f.connected = true
	f.lastErr = ""
	f.lastCaughtUp = time.Now()
	return false, nil
}

// applyLog decodes a /repl/wal body with wal.ScanLog, the scan recovery
// runs, and applies each fresh record, advancing the cursor record by
// record so any interruption resumes exactly after the last applied
// commit. A header naming any generation but gen is a tear, so a
// corrupt header never moves the cursor. Records before a tear have
// been applied and published when it returns.
func (f *Follower) applyLog(body []byte, gen uint64) error {
	_, err := wal.ScanLog(body, gen, func(seq uint64, b wal.Batch) error {
		f.mu.Lock()
		applied := f.applied
		f.mu.Unlock()
		if seq <= applied {
			return nil // replayed overlap; set-semantics make this safe to skip
		}
		if err := f.cfg.Target.Apply(seq, b); err != nil {
			return err
		}
		f.mu.Lock()
		f.applied = seq
		f.records++
		f.mu.Unlock()
		return nil
	})
	if err != nil {
		// Publish what did apply before the error surfaced.
		_ = f.cfg.Target.Flush()
	}
	return err
}

// fail records a failed round; transport marks a reconnect.
func (f *Follower) fail(transport bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.connected = false
	f.lastErr = err.Error()
	if transport {
		f.reconnects++
	}
}

// backoffDelay returns the jittered exponential delay after n
// consecutive failures: full backoff doubled per failure, capped, then
// drawn uniformly from [half, full] so a fleet of followers does not
// reconnect in lockstep.
func (f *Follower) backoffDelay(n int) time.Duration {
	d := f.cfg.BackoffBase
	for i := 1; i < n && d < f.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > f.cfg.BackoffMax {
		d = f.cfg.BackoffMax
	}
	f.rngMu.Lock()
	jittered := d/2 + time.Duration(f.rng.Int63n(int64(d/2)+1))
	f.rngMu.Unlock()
	// A sub-2ns base truncates d/2 to zero, which would turn the retry
	// loop into a hot spin against a down primary. Hold a 1ms floor
	// (never above the configured cap).
	if floor := min(time.Millisecond, f.cfg.BackoffMax); jittered < floor {
		jittered = floor
	}
	return jittered
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}
