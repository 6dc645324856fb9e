// Shard-over-HTTP source: the wire seam that lets cmd/server instances
// compose into a cluster. A server exposes its local matches at
// /shard/scan (Handler, handler.go); a coordinator wraps a peer's
// endpoint as an engine.Source (Remote). The protocol is term-level —
// dictionary IDs are process-local, so triples cross the wire as terms
// and the client interns them into the coordinator's own dictionary.
//
// The client is chaos-hardened: it negotiates the framed checksummed
// protocol (frame.go) and decodes it as a stream with bounded memory,
// classifies every failure into a typed kind (transport, status,
// corrupt, truncated, stalled, breaker-open), retries transient faults
// with jittered exponential backoff strictly while zero triples have
// been emitted, trips a per-peer circuit breaker on consecutive scan
// failures, and can hedge slow scans with a second request after a
// latency quantile.
package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdfshapes/internal/rdf"
	"rdfshapes/internal/store"
)

// Source is the read surface the scan endpoint serves and the client
// reproduces: the engine.Source contract.
type Source interface {
	Dict() *store.Dict
	Scan(pat store.IDTriple, fn func(store.IDTriple) bool)
}

// Remote scan-hardening defaults. A scan makes 1+DefaultMaxRetries
// attempts before giving up; each attempt carries its own context
// deadline so a hung peer cannot stall the coordinator indefinitely.
const (
	DefaultRequestTimeout = 10 * time.Second
	DefaultMaxRetries     = 2
	DefaultBackoffBase    = 25 * time.Millisecond
	DefaultBackoffMax     = 500 * time.Millisecond

	// DefaultBreakerThreshold consecutive failed scans open the
	// breaker; after DefaultBreakerCooldown one half-open probe is let
	// through.
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = time.Second

	// DefaultHedgeMin floors the hedge delay so a briefly-idle peer
	// with microsecond latency history is not hedged instantly.
	DefaultHedgeMin = 10 * time.Millisecond

	// hedgeWindow is the per-peer latency history ring size and
	// hedgeMinSamples the observations required before hedging arms.
	hedgeWindow     = 64
	hedgeMinSamples = 8
)

// ErrorKind classifies a remote scan failure.
type ErrorKind int

const (
	// KindTransport is a connection-level failure: dial error, reset,
	// or a read error below the protocol layer.
	KindTransport ErrorKind = iota
	// KindStatus is a non-200 peer answer.
	KindStatus
	// KindCorrupt is a protocol violation: bad magic, CRC mismatch,
	// malformed frame, or an undecodable triple inside a valid frame.
	KindCorrupt
	// KindTruncated is a stream that ended before its EOS trailer or
	// whose EOS row count disagreed with the rows received.
	KindTruncated
	// KindStalled is a per-request deadline expiring mid-scan: the
	// peer (or path) went quiet without closing.
	KindStalled
	// KindBreakerOpen is a fast-fail: the circuit breaker was open and
	// no request was made.
	KindBreakerOpen
)

var kindStrings = map[ErrorKind]string{
	KindTransport: "transport", KindStatus: "status", KindCorrupt: "corrupt",
	KindTruncated: "truncated", KindStalled: "stalled", KindBreakerOpen: "breaker-open",
}

func (k ErrorKind) String() string {
	if s, ok := kindStrings[k]; ok {
		return s
	}
	return fmt.Sprintf("shard.ErrorKind(%d)", int(k))
}

// Error is the typed failure a remote scan retains. Retryable marks
// faults a retry may clear — transport errors, 5xx/429 responses, torn
// or corrupt streams; permanent faults (any other non-200 status) are
// not retried because the peer affirmatively rejected the request.
// Emitted counts triples already delivered to the caller when the fault
// hit: a fault after the first emitted triple is never retried (a retry
// would replay duplicates), so Emitted > 0 means the caller holds a
// prefix it must discard.
type Error struct {
	Op        string // "scan"
	Kind      ErrorKind
	Attempts  int // requests actually made
	Retryable bool
	Emitted   int64 // triples delivered before the fault
	Err       error
}

func (e *Error) Error() string {
	kind := "permanent"
	if e.Retryable {
		kind = "retryable"
	}
	return fmt.Sprintf("shard: remote %s: %s %s failure after %d attempt(s): %v",
		e.Op, kind, e.Kind, e.Attempts, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// IsRetryable reports whether err is a remote-scan failure that a
// later retry (with the peer recovered) could clear.
func IsRetryable(err error) bool {
	var re *Error
	return errors.As(err, &re) && re.Retryable
}

// breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// RemoteStats is a point-in-time snapshot of a Remote's counters.
type RemoteStats struct {
	Scans         int64  // Scan calls attempted (breaker fast-fails included)
	Failures      int64  // Scan calls that ended in a retained error
	Retries       int64  // extra attempts made after a retryable fault
	Hedges        int64  // hedge requests launched
	HedgeWins     int64  // scans won by the hedge request
	CorruptFrames int64  // KindCorrupt faults observed
	Truncations   int64  // KindTruncated faults observed
	BreakerOpens  int64  // closed→open transitions
	BreakerFast   int64  // scans fast-failed while open
	Rows          int64  // triples streamed to callers
	BreakerState  string // "closed", "open", or "half-open"
}

// Remote is an engine.Source reading a peer server's /shard/scan
// endpoint. Terms are interned into the coordinator's dictionary on
// arrival, so IDs handed to fn are locally valid. Scan itself cannot
// return an error (the Source contract); failures surface as an empty
// or short scan and are retained for Err as a typed *Error.
//
// Each request runs under its own deadline (Timeout). The response is
// decoded incrementally, frame by frame, so memory stays bounded by
// the frame size, not the result size. Retryable failures are retried
// up to MaxRetries times with jittered exponential backoff, but only
// while zero triples have been emitted; once the caller has seen a
// triple, a fault ends the scan with a typed error instead (no
// duplicate replays).
type Remote struct {
	base string
	c    *http.Client
	dict *store.Dict

	// Tunables, fixed at construction. Zero values select the defaults
	// above; a negative MaxRetries disables retries entirely.
	timeout     time.Duration
	maxRetries  int
	backoffBase time.Duration
	backoffMax  time.Duration

	// Circuit breaker (negative threshold disables it).
	breakerThreshold int
	breakerCooldown  time.Duration
	now              func() time.Time // clock seam for tests

	// Hedging (quantile 0 disables it).
	hedgeQuantile float64
	hedgeMin      time.Duration

	mu       sync.Mutex
	err      error
	rng      *rand.Rand
	brState  int
	brFails  int
	brOpened time.Time
	lats     []time.Duration // ring of time-to-first-frame observations
	latNext  int

	stScans, stFailures, stRetries atomic.Int64
	stHedges, stHedgeWins          atomic.Int64
	stCorrupt, stTruncated         atomic.Int64
	stBreakerOpens, stBreakerFast  atomic.Int64
	stRows                         atomic.Int64
}

// RemoteConfig tunes the hardened client. The zero value selects the
// Default* constants; MaxRetries < 0 means no retries,
// BreakerThreshold < 0 disables the breaker, and HedgeQuantile 0
// disables hedging.
type RemoteConfig struct {
	Timeout     time.Duration // per-request context deadline
	MaxRetries  int           // retries after the first attempt
	BackoffBase time.Duration // first retry delay (jittered)
	BackoffMax  time.Duration // backoff growth cap
	Seed        int64         // jitter seed; 0 derives from the clock

	BreakerThreshold int           // consecutive failed scans that open the breaker
	BreakerCooldown  time.Duration // open→half-open delay

	HedgeQuantile float64       // launch a second request after this latency quantile, e.g. 0.95
	HedgeMin      time.Duration // hedge delay floor
}

// NewRemote wraps the server at baseURL (scheme://host[:port], no
// trailing path) as a Source interning into dict, with default
// hardening. A nil client selects http.DefaultClient.
func NewRemote(baseURL string, client *http.Client, dict *store.Dict) *Remote {
	return NewRemoteConfig(baseURL, client, dict, RemoteConfig{})
}

// NewRemoteConfig is NewRemote with explicit retry, deadline, breaker,
// and hedging tuning.
func NewRemoteConfig(baseURL string, client *http.Client, dict *store.Dict, cfg RemoteConfig) *Remote {
	if client == nil {
		client = http.DefaultClient
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultRequestTimeout
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = DefaultHedgeMin
	}
	return &Remote{
		base:             strings.TrimRight(baseURL, "/"),
		c:                client,
		dict:             dict,
		timeout:          cfg.Timeout,
		maxRetries:       cfg.MaxRetries,
		backoffBase:      cfg.BackoffBase,
		backoffMax:       cfg.BackoffMax,
		breakerThreshold: cfg.BreakerThreshold,
		breakerCooldown:  cfg.BreakerCooldown,
		hedgeQuantile:    cfg.HedgeQuantile,
		hedgeMin:         cfg.HedgeMin,
		now:              time.Now,
		rng:              rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Dict returns the coordinator-side dictionary remote triples intern
// into.
func (r *Remote) Dict() *store.Dict { return r.dict }

// Peer returns the peer base URL, for metric labels.
func (r *Remote) Peer() string { return r.base }

// Err returns the first failure since the last call, clearing it.
// Callers check it after a scan whose emptiness matters.
func (r *Remote) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.err
	r.err = nil
	return err
}

func (r *Remote) setErr(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// Stats snapshots the peer's counters.
func (r *Remote) Stats() RemoteStats {
	r.mu.Lock()
	state := [...]string{"closed", "open", "half-open"}[r.brState]
	r.mu.Unlock()
	return RemoteStats{
		Scans:         r.stScans.Load(),
		Failures:      r.stFailures.Load(),
		Retries:       r.stRetries.Load(),
		Hedges:        r.stHedges.Load(),
		HedgeWins:     r.stHedgeWins.Load(),
		CorruptFrames: r.stCorrupt.Load(),
		Truncations:   r.stTruncated.Load(),
		BreakerOpens:  r.stBreakerOpens.Load(),
		BreakerFast:   r.stBreakerFast.Load(),
		Rows:          r.stRows.Load(),
		BreakerState:  state,
	}
}

// jitter returns a uniform duration in [d/2, d], like the replication
// follower's backoff: desynchronized but never shorter than half the
// nominal delay.
func (r *Remote) jitter(d time.Duration) time.Duration {
	r.mu.Lock()
	f := r.rng.Float64()
	r.mu.Unlock()
	return d/2 + time.Duration(f*float64(d/2))
}

// breakerAllow reports whether a scan may proceed, moving open→half-open
// once the cooldown has elapsed. In half-open exactly one probe is in
// flight; concurrent scans fast-fail until it settles.
func (r *Remote) breakerAllow() bool {
	if r.breakerThreshold < 0 {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.brState {
	case breakerClosed:
		return true
	case breakerOpen:
		if r.now().Sub(r.brOpened) >= r.breakerCooldown {
			r.brState = breakerHalfOpen
			return true // the half-open probe
		}
		return false
	default: // half-open: a probe is already in flight
		return false
	}
}

// breakerResult records a scan outcome: success closes the breaker,
// failure counts toward the threshold (and reopens a half-open probe).
func (r *Remote) breakerResult(ok bool) {
	if r.breakerThreshold < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ok {
		r.brState = breakerClosed
		r.brFails = 0
		return
	}
	r.brFails++
	if r.brState == breakerHalfOpen || r.brFails >= r.breakerThreshold {
		if r.brState != breakerOpen {
			r.stBreakerOpens.Add(1)
		}
		r.brState = breakerOpen
		r.brOpened = r.now()
		r.brFails = 0
	}
}

// observeLatency records a successful attempt's time-to-first-frame
// for the hedge quantile.
func (r *Remote) observeLatency(d time.Duration) {
	r.mu.Lock()
	if len(r.lats) < hedgeWindow {
		r.lats = append(r.lats, d)
	} else {
		r.lats[r.latNext%hedgeWindow] = d
	}
	r.latNext++
	r.mu.Unlock()
}

// hedgeDelay returns the delay after which a second request launches,
// or 0 when hedging is disabled or history is too thin.
func (r *Remote) hedgeDelay() time.Duration {
	if r.hedgeQuantile <= 0 {
		return 0
	}
	r.mu.Lock()
	if len(r.lats) < hedgeMinSamples {
		r.mu.Unlock()
		return 0
	}
	lats := make([]time.Duration, len(r.lats))
	copy(lats, r.lats)
	r.mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := r.hedgeQuantile
	if q > 1 {
		q = 1
	}
	d := lats[int(q*float64(len(lats)-1))]
	if d < r.hedgeMin {
		d = r.hedgeMin
	}
	return d
}

// scanStream is one validated open response: status checked, framing
// confirmed, and the magic already verified — the point up to which
// hedging races attempts.
type scanStream struct {
	resp   *http.Response
	ctx    context.Context
	cancel context.CancelFunc
	fr     *frameReader
}

func (st *scanStream) close() {
	st.resp.Body.Close()
	st.cancel()
}

// attemptErr is a classified single-attempt failure.
type attemptErr struct {
	kind      ErrorKind
	retryable bool
	err       error
}

// open makes one request under its own deadline and validates the
// response up to the first protocol byte.
func (r *Remote) open(rawURL string) (*scanStream, *attemptErr) {
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
	fail := func(kind ErrorKind, retryable bool, err error) (*scanStream, *attemptErr) {
		cancel()
		return nil, &attemptErr{kind, retryable, err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return fail(KindTransport, false, err)
	}
	req.Header.Set("Accept", ScanContentType)
	resp, err := r.c.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return fail(KindStalled, true, err)
		}
		return fail(KindTransport, true, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		// The peer answered: 5xx and throttling are transient, anything
		// else is an affirmative rejection retrying cannot fix.
		retryable := resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
		return fail(KindStatus, retryable, fmt.Errorf("status %s", resp.Status))
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, ScanContentType) {
		resp.Body.Close()
		// A 200 that is not the framed stream carries no checksums and
		// no row count, so nothing in it can be trusted; the peer does
		// not speak the protocol and retrying will not teach it.
		r.stCorrupt.Add(1)
		return fail(KindCorrupt, false, fmt.Errorf("unframed response (Content-Type %q)", ct))
	}
	st := &scanStream{resp: resp, ctx: ctx, cancel: cancel, fr: newFrameReader(resp.Body)}
	if err := st.fr.readHeader(); err != nil {
		st.close()
		return nil, r.classifyStream(st, err)
	}
	return st, nil
}

// classifyStream maps a decode failure to a typed attempt error,
// preferring the deadline over whatever read error it manifested as.
func (r *Remote) classifyStream(st *scanStream, err error) *attemptErr {
	switch {
	case st.ctx.Err() != nil:
		return &attemptErr{KindStalled, true, fmt.Errorf("deadline mid-stream: %w", err)}
	case errors.Is(err, ErrFrameCorrupt):
		r.stCorrupt.Add(1)
		return &attemptErr{KindCorrupt, true, err}
	case errors.Is(err, ErrScanTruncated):
		r.stTruncated.Add(1)
		return &attemptErr{KindTruncated, true, err}
	default:
		return &attemptErr{KindTransport, true, err}
	}
}

// openHedged opens a stream, optionally racing a second request once
// the hedge delay elapses. The loser is canceled; the first validated
// stream wins.
func (r *Remote) openHedged(rawURL string, allowHedge bool) (*scanStream, *attemptErr) {
	delay := r.hedgeDelay()
	if !allowHedge || delay <= 0 {
		return r.open(rawURL)
	}
	type result struct {
		st    *scanStream
		ae    *attemptErr
		hedge bool
	}
	ch := make(chan result, 2)
	launch := func(hedge bool) {
		st, ae := r.open(rawURL)
		ch <- result{st, ae, hedge}
	}
	go launch(false)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	outstanding, hedged := 1, false
	var firstErr *attemptErr
	for outstanding > 0 {
		select {
		case got := <-ch:
			outstanding--
			if got.ae == nil {
				if outstanding > 0 {
					go func() {
						if loser := <-ch; loser.st != nil {
							loser.st.close()
						}
					}()
				}
				if got.hedge {
					r.stHedgeWins.Add(1)
				}
				return got.st, nil
			}
			if firstErr == nil {
				firstErr = got.ae
			}
		case <-timer.C:
			if !hedged {
				hedged = true
				r.stHedges.Add(1)
				outstanding++
				go launch(true)
			}
		}
	}
	return nil, firstErr
}

// emitPayload decodes one frame payload (whole N-Triples lines) and
// replays it to fn. Returns rows decoded, whether fn stopped the scan,
// and any parse error.
func (r *Remote) emitPayload(payload []byte, fn func(store.IDTriple) bool, emitted *int64) (int, bool, error) {
	g, err := rdf.ParseNTriples(bytes.NewReader(payload))
	if err != nil {
		return 0, false, fmt.Errorf("decode frame: %w", err)
	}
	for i, t := range g {
		if !r.emit(t, fn, emitted) {
			return i + 1, true, nil
		}
	}
	return len(g), false, nil
}

func (r *Remote) emit(t rdf.Triple, fn func(store.IDTriple) bool, emitted *int64) bool {
	it := store.IDTriple{
		S: r.dict.Intern(t.S),
		P: r.dict.Intern(t.P),
		O: r.dict.Intern(t.O),
	}
	*emitted++
	r.stRows.Add(1)
	return fn(it)
}

// consume drains a validated stream into fn. A nil return is a
// complete (or caller-stopped) scan.
func (r *Remote) consume(st *scanStream, fn func(store.IDTriple) bool, emitted *int64) *attemptErr {
	defer st.close()
	for {
		payload, eos, err := st.fr.next()
		if eos {
			if err != nil {
				// EOS arrived but its row count disagrees.
				r.stTruncated.Add(1)
				return &attemptErr{KindTruncated, true, err}
			}
			return nil
		}
		if err != nil {
			return r.classifyStream(st, err)
		}
		rows, stopped, perr := r.emitPayload(payload, fn, emitted)
		st.fr.countRows(rows)
		if perr != nil {
			// The frame passed its CRC but does not decode: a peer
			// bug, not line noise.
			r.stCorrupt.Add(1)
			return &attemptErr{KindCorrupt, true, perr}
		}
		if stopped {
			return nil
		}
	}
}

// Scan fetches the peer's matches of pat and streams them to fn. IDs in
// pat are resolved against the local dictionary; a zero ID is a
// wildcard. Retryable failures are retried with jittered exponential
// backoff while no triple has been emitted; afterwards a fault ends the
// scan with a typed error retained for Err.
func (r *Remote) Scan(pat store.IDTriple, fn func(store.IDTriple) bool) {
	r.stScans.Add(1)
	if !r.breakerAllow() {
		r.stBreakerFast.Add(1)
		r.stFailures.Add(1)
		r.setErr(&Error{Op: "scan", Kind: KindBreakerOpen, Attempts: 0, Retryable: true,
			Err: fmt.Errorf("circuit breaker open for %s", r.base)})
		return
	}
	q := url.Values{}
	for _, pos := range []struct {
		param string
		id    store.ID
	}{
		{"s", pat.S}, {"p", pat.P}, {"o", pat.O},
	} {
		if pos.id != 0 {
			q.Set(pos.param, r.dict.Term(pos.id).String())
		}
	}
	rawURL := r.base + "/shard/scan?" + q.Encode()

	var (
		emitted int64
		lastErr *attemptErr
	)
	delay := r.backoffBase
	attempts := 0
	for try := 0; try <= r.maxRetries; try++ {
		if try > 0 {
			r.stRetries.Add(1)
			time.Sleep(r.jitter(delay))
			if delay *= 2; delay > r.backoffMax {
				delay = r.backoffMax
			}
		}
		attempts++
		start := time.Now()
		st, ae := r.openHedged(rawURL, try == 0)
		if ae == nil {
			r.observeLatency(time.Since(start))
			ae = r.consume(st, fn, &emitted)
		}
		if ae == nil {
			r.breakerResult(true)
			return
		}
		lastErr = ae
		if !ae.retryable || emitted > 0 {
			break
		}
	}
	r.stFailures.Add(1)
	r.breakerResult(false)
	r.setErr(&Error{
		Op:        "scan",
		Kind:      lastErr.kind,
		Attempts:  attempts,
		Retryable: lastErr.retryable,
		Emitted:   emitted,
		Err:       lastErr.err,
	})
}
