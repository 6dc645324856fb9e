package rdfshapes

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"rdfshapes/internal/live"
	"rdfshapes/internal/rdf"
	"rdfshapes/internal/repl"
	"rdfshapes/internal/store"
	"rdfshapes/internal/wal"
)

// Replication: a DB opened with OpenReplica is a read-only replica of a
// durable primary. It bootstraps from the primary's current checkpoint
// snapshot, then tails the primary's write-ahead log, applying every
// shipped commit through the same live-apply + incremental statistics
// maintenance path the primary's own updates take — so the replica's
// planner statistics are exact and its query plans match the primary's.
// See docs/REPLICATION.md.

// ErrReadOnlyReplica is returned by Update on a replica: writes must go
// to the primary; the replica receives them through the log stream.
var ErrReadOnlyReplica = errors.New("rdfshapes: read-only replica: send writes to the primary")

// WithReplicaOf marks the DB under construction a read-only replica of
// the durable primary serving at url. It is honored by OpenReplica
// (which sets it from its argument); the local-data entry points (Load,
// Open, LoadNTriples, LoadSnapshot) reject it, because a replica's
// initial contents come from the primary, not from local input.
func WithReplicaOf(url string) Option {
	return func(c *config) { c.replicaOf = url }
}

// WithReplicaPollInterval sets how often a replica polls the primary for
// new log records while healthy (default repl.DefaultPollInterval).
// Large values effectively make replication manual via ReplicaSync.
func WithReplicaPollInterval(d time.Duration) Option {
	return func(c *config) { c.replPoll = d }
}

// replicaState is the follower machinery attached to a replica DB.
type replicaState struct {
	primary  string
	follower *repl.Follower
	cancel   context.CancelFunc
	done     chan struct{}
}

// OpenReplica builds a read-only replica of the durable primary at
// primaryURL: it fetches the primary's current checkpoint snapshot,
// builds the DB over it (computing statistics from scratch, so they are
// exact by construction), performs one synchronous catch-up round, and
// starts a background follower that keeps tailing the primary's log
// with jittered-backoff reconnects until Close. Options apply as in
// Load; durability options are rejected — a replica's durable state is
// the primary's.
func OpenReplica(primaryURL string, opts ...Option) (*DB, error) {
	cfg := newConfig(opts)
	cfg.replicaOf = primaryURL
	if cfg.replicaOf == "" {
		return nil, errors.New("rdfshapes: OpenReplica requires a primary URL")
	}
	if cfg.walDir != "" {
		return nil, errors.New("rdfshapes: a replica cannot attach its own durability directory; its durable state is the primary's")
	}

	client := &http.Client{}
	gen, data, err := repl.FetchSnapshot(context.Background(), client, cfg.replicaOf)
	if err != nil {
		return nil, fmt.Errorf("rdfshapes: bootstrapping replica: %w", err)
	}
	st, err := store.ReadSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("rdfshapes: parsing primary snapshot: %w", err)
	}
	db, err := fromStoreCfg(st, cfg)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	rs := &replicaState{primary: cfg.replicaOf, cancel: cancel, done: make(chan struct{})}
	db.replica = rs
	rs.follower = repl.NewFollower(repl.FollowerConfig{
		Primary:      cfg.replicaOf,
		Target:       &replicaTarget{db: db},
		StartGen:     gen, // the snapshot pairs exactly with (gen, 0)
		PollInterval: cfg.replPoll,
		Client:       client,
	})
	// One synchronous round so the opened replica reflects commits made
	// after the snapshot; a failure here is not fatal — the background
	// follower retries with backoff.
	_ = rs.follower.Sync(ctx)
	go func() {
		defer close(rs.done)
		_ = rs.follower.Run(ctx)
	}()
	return db, nil
}

// Replica reports whether the DB is a read-only replica.
func (db *DB) Replica() bool { return db.replica != nil }

// ReplicaPrimary returns the primary URL a replica tails; empty
// otherwise.
func (db *DB) ReplicaPrimary() string {
	if db.replica == nil {
		return ""
	}
	return db.replica.primary
}

// ReplicaStatus returns a replica's replication status (cursor, lag,
// staleness, lifecycle counters — the /repl/status payload); ok is
// false on a non-replica DB.
func (db *DB) ReplicaStatus() (s repl.StatusResponse, ok bool) {
	if db.replica == nil {
		return repl.StatusResponse{}, false
	}
	return db.replica.follower.Status(), true
}

// ReplicaSync forces one synchronous replication round — bootstrap if
// needed, then poll-and-apply — and returns its error. Use it for
// read-your-writes barriers after a primary write, or to drive
// replication deterministically in tests (together with a large
// WithReplicaPollInterval). It is safe concurrently with the background
// follower. Returns ErrClosed via the apply path on a closed DB and an
// error on a non-replica DB.
func (db *DB) ReplicaSync(ctx context.Context) error {
	if db.replica == nil {
		return errors.New("rdfshapes: not a replica")
	}
	return db.replica.follower.Sync(ctx)
}

// replicaTarget is the repl.Target over the facade: every shipped batch
// commits through applyBatch — live apply plus incremental statistics
// maintenance — under the same updateMu the primary's own update path
// holds, so replica statistics stay exact and snapshots stay atomic.
type replicaTarget struct{ db *DB }

// Bootstrap replaces the replica's contents with the snapshot by
// diffing: one batch inserts what the snapshot has and the replica
// lacks, and deletes what the replica has and the snapshot lacks. A
// running replica therefore re-bootstraps in place (pruned generation,
// diverged primary) without a cold restart, and the maintainer sees the
// transition as a normal commit.
func (t *replicaTarget) Bootstrap(gen uint64, snapshot []byte) error {
	st, err := store.ReadSnapshot(snapshot)
	if err != nil {
		return fmt.Errorf("parsing snapshot: %w", err)
	}
	want := make(map[rdf.Triple]bool, st.Len())
	st.Scan(store.IDTriple{}, func(tr store.IDTriple) bool {
		d := st.Dict()
		want[rdf.Triple{S: d.Term(tr.S), P: d.Term(tr.P), O: d.Term(tr.O)}] = true
		return true
	})

	db := t.db
	if err := db.begin(); err != nil {
		return err
	}
	defer db.end()
	db.updateMu.Lock()
	defer db.updateMu.Unlock()
	var b live.Batch
	view := db.snapshotView()
	dict := view.Dict()
	view.Scan(store.IDTriple{}, func(tr store.IDTriple) bool {
		trip := rdf.Triple{S: dict.Term(tr.S), P: dict.Term(tr.P), O: dict.Term(tr.O)}
		if want[trip] {
			delete(want, trip)
		} else {
			b.Delete = append(b.Delete, trip)
		}
		return true
	})
	for trip := range want {
		b.Insert = append(b.Insert, trip)
	}
	if len(b.Insert) > 0 || len(b.Delete) > 0 {
		db.applyBatch(b)
	}
	db.refreshPlanner()
	return nil
}

// Apply commits one shipped batch — the replica-side half of the
// primary's UpdateCtx loop, minus the logging.
func (t *replicaTarget) Apply(seq uint64, b wal.Batch) error {
	db := t.db
	if err := db.begin(); err != nil {
		return err
	}
	defer db.end()
	db.updateMu.Lock()
	defer db.updateMu.Unlock()
	db.applyBatch(live.Batch{Insert: b.Insert, Delete: b.Delete})
	return nil
}

// Flush publishes applied batches to the planner, once per poll round.
func (t *replicaTarget) Flush() error {
	db := t.db
	if err := db.begin(); err != nil {
		return err
	}
	defer db.end()
	db.refreshPlanner()
	return nil
}
