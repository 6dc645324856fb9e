// Package repl is the replication subsystem: WAL log shipping from a
// durable primary to read replicas, plus the health-checked read router
// in front of the fleet. See docs/REPLICATION.md.
//
// The primary side (Primary) serves two endpoints over the WAL
// manager's shipping surface:
//
//	GET /repl/wal?gen=G&from=S   wal-G.log's header and its records
//	                             after S, one generation per response;
//	                             410 Gone when G has been pruned
//	GET /repl/snapshot           the current checkpoint snapshot, for
//	                             follower bootstrap
//
// The replica side (Follower) bootstraps from a streamed snapshot and
// then tails the log: every shipped batch is applied through the same
// live-apply + statistics-maintenance path the primary commits through,
// so a replica's planner statistics stay exact — the property the whole
// optimizer rests on. The follower owns the replication cursor
// (generation, applied seq), reconnects with jittered exponential
// backoff, resumes from its last applied offset after any tear, and
// re-bootstraps when the primary answers 410 (its generation was
// checkpointed away) or when the primary's sequence regresses below the
// replica's (a primary that lost acknowledged commits).
//
// Router fronts a primary and N replicas: reads round-robin over
// replicas that are ready and within the staleness bound, laggards are
// ejected until they catch back up, reads fail over to the primary when
// no replica qualifies, and when everything is behind the least-stale
// replica serves with an explicit X-Repl-Stale header so clients know
// the read is degraded.
package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"rdfshapes/internal/wal"
)

// Endpoint paths and headers of the replication protocol.
const (
	WALPath      = "/repl/wal"
	SnapshotPath = "/repl/snapshot"
	StatusPath   = "/repl/status"

	// HeaderGeneration carries the primary's current WAL generation on
	// /repl/wal and the snapshot's generation on /repl/snapshot.
	HeaderGeneration = "X-Repl-Generation"
	// HeaderSeq carries the sequence number a /repl/wal body must bring
	// the follower to: the primary's last appended one for the current
	// generation, the last one logged in an older generation.
	HeaderSeq = "X-Repl-Seq"
	// HeaderStale marks a degraded read served from a replica beyond the
	// staleness bound; the value is the staleness in seconds.
	HeaderStale = "X-Repl-Stale"
)

// Source is the primary-side shipping surface; *wal.Manager implements
// it.
type Source interface {
	// ReadSegment returns generation gen's WAL-file suffix after seq
	// from, the current generation, and the sequence number the segment
	// must bring its reader to; wal.ErrGenPruned when gen is no longer
	// on disk.
	ReadSegment(gen, from uint64) ([]byte, uint64, uint64, error)
	// SnapshotData returns the current checkpoint snapshot and its
	// generation.
	SnapshotData() (uint64, []byte, error)
}

// Target is the replica-side apply surface, implemented by the facade:
// each call must route through the same commit path live updates take
// (live apply + incremental statistics maintenance), or replica plans
// diverge from the primary's.
type Target interface {
	// Bootstrap replaces the replica's contents with the snapshot for
	// generation gen (diffing against current contents, so a live
	// replica re-bootstraps without a cold restart).
	Bootstrap(gen uint64, snapshot []byte) error
	// Apply commits one shipped batch. Sequence numbers arrive strictly
	// increasing.
	Apply(seq uint64, b wal.Batch) error
	// Flush publishes applied state to readers (planner refresh); called
	// once per applied poll round rather than per record.
	Flush() error
}

// StatusResponse is the JSON shape of GET /repl/status, served by both
// primaries and replicas; the router consumes it for health checks.
type StatusResponse struct {
	// Role is "primary" or "replica".
	Role string `json:"role"`
	// Generation is the WAL generation: current on a primary, the
	// follower cursor's on a replica.
	Generation uint64 `json:"generation"`
	// AppliedSeq is the last sequence number applied locally (on a
	// primary, the last appended).
	AppliedSeq uint64 `json:"appliedSeq"`
	// PrimarySeq is the primary's last appended sequence number as of
	// the replica's last successful poll (equals AppliedSeq on a
	// primary).
	PrimarySeq uint64 `json:"primarySeq"`
	// LagRecords is PrimarySeq - AppliedSeq at the last poll.
	LagRecords uint64 `json:"lagRecords"`
	// StalenessSeconds is the time since the replica last observed
	// itself fully caught up (0 on a primary).
	StalenessSeconds float64 `json:"stalenessSeconds"`
	// Connected reports the last exchange with the primary succeeded.
	Connected bool `json:"connected"`
	// Bootstraps, Reconnects, TornStreams, and RecordsApplied count
	// follower lifecycle events since start.
	Bootstraps     int64 `json:"bootstraps"`
	Reconnects     int64 `json:"reconnects"`
	TornStreams    int64 `json:"tornStreams"`
	RecordsApplied int64 `json:"recordsApplied"`
	// LastError is the most recent follower error, empty when healthy.
	LastError string `json:"lastError,omitempty"`
}

// idleTimeout aborts a replication request when the primary sends no
// response bytes for this long, whether it never answers (a blackholed
// connection) or stops mid-body (a stall). A round has no overall
// deadline, since snapshot bodies can be large, so without this a stalled
// primary would hang the round, and every round queued behind it,
// forever. A variable so the in-package tests can shorten it.
var idleTimeout = 10 * time.Second

// errIdle marks a request aborted by idleTimeout.
var errIdle = errors.New("repl: primary sent nothing within the idle timeout")

// get issues a GET under ctx that is aborted when no response bytes
// arrive for idleTimeout: before the headers, and between body reads.
// The caller must close the returned body.
func get(ctx context.Context, client *http.Client, url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancelCause(ctx)
	timer := time.AfterFunc(idleTimeout, func() { cancel(errIdle) })
	resp, err := client.Do(req.WithContext(ctx))
	if err != nil {
		err = idleErr(ctx, err)
		timer.Stop()
		cancel(nil)
		return nil, err
	}
	timer.Reset(idleTimeout)
	resp.Body = &idleBody{ReadCloser: resp.Body, ctx: ctx, timer: timer, cancel: cancel}
	return resp, nil
}

// idleBody re-arms the idle timer on every read that returns bytes.
type idleBody struct {
	io.ReadCloser
	ctx    context.Context
	timer  *time.Timer
	cancel context.CancelCauseFunc
}

func (b *idleBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 {
		b.timer.Reset(idleTimeout)
	}
	if err != nil && err != io.EOF {
		err = idleErr(b.ctx, err)
	}
	return n, err
}

func (b *idleBody) Close() error {
	b.timer.Stop()
	b.cancel(nil)
	return b.ReadCloser.Close()
}

// idleErr names the idle timeout as the cause of err when it fired.
func idleErr(ctx context.Context, err error) error {
	if !errors.Is(err, errIdle) && errors.Is(context.Cause(ctx), errIdle) {
		return fmt.Errorf("%w: %w", errIdle, err)
	}
	return err
}

// FetchSnapshot retrieves the primary's current checkpoint snapshot and
// its generation — the bootstrap half of the protocol, shared by the
// follower and the facade's initial replica open. Like every replication
// request it is aborted when the primary goes quiet for idleTimeout.
func FetchSnapshot(ctx context.Context, client *http.Client, primary string) (uint64, []byte, error) {
	resp, err := get(ctx, client, primary+SnapshotPath)
	if err != nil {
		return 0, nil, fmt.Errorf("repl: fetching snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, nil, fmt.Errorf("repl: snapshot request failed: %s: %s", resp.Status, body)
	}
	gen, err := strconv.ParseUint(resp.Header.Get(HeaderGeneration), 10, 64)
	if err != nil || gen == 0 {
		return 0, nil, fmt.Errorf("repl: snapshot response missing %s header", HeaderGeneration)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// The snapshot format carries its own checksum, so a torn body is
		// caught either here or at parse time — never applied silently.
		return 0, nil, fmt.Errorf("repl: reading snapshot stream: %w", err)
	}
	return gen, data, nil
}
