package rdfshapes

import (
	"errors"
	"fmt"
	"io"
	"time"

	"rdfshapes/internal/live"
	"rdfshapes/internal/store"
	"rdfshapes/internal/wal"
)

// Durability: a DB opened with Open (or loaded with WithDurability)
// writes every committed update batch to a checksummed write-ahead log
// before acknowledging it, and periodically checkpoints the full dataset
// into an atomically-installed snapshot. After a crash, Open recovers
// the newest valid snapshot, replays the log through the incremental
// statistics maintainer, truncates any torn tail, and serves exactly a
// prefix of the acknowledged commits. See docs/DURABILITY.md.

// SyncPolicy selects when WAL appends reach stable storage; see the
// constants. The zero value is SyncAlways.
type SyncPolicy int

const (
	// SyncAlways fsyncs the log inside every Update before it returns:
	// an acknowledged commit survives any crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the operating system: updates are
	// faster, but commits acknowledged since the last checkpoint or
	// clean Close may be lost in a crash. Recovery still yields a clean
	// prefix of the commit sequence, just possibly a shorter one.
	SyncNever
)

// ParseSyncPolicy parses "always" or "never" (the -fsync server flag).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	p, err := wal.ParseSyncPolicy(s)
	if err != nil {
		return 0, err
	}
	if p == wal.SyncNever {
		return SyncNever, nil
	}
	return SyncAlways, nil
}

func (p SyncPolicy) wal() wal.SyncPolicy {
	if p == SyncNever {
		return wal.SyncNever
	}
	return wal.SyncAlways
}

func (p SyncPolicy) String() string { return p.wal().String() }

// ErrNotDurable is returned by Checkpoint on a DB that has no durability
// directory attached.
var ErrNotDurable = errors.New("rdfshapes: database is not durable (no data directory attached)")

// ErrWALFailed marks updates refused because a WAL append could not be
// made durable; the DB stays readable, and a successful Checkpoint
// restores writability. Test with errors.Is.
var ErrWALFailed = wal.ErrWALFailed

// WithDurability attaches a fresh durability directory when loading a
// dataset from another source (N-Triples, a plain snapshot, a parsed
// graph): the loaded data is checkpointed into dir as generation one and
// every subsequent update is logged there. It fails with an error if dir
// already holds durable state — recovering existing state is Open's job,
// and silently shadowing it would lose data.
func WithDurability(dir string) Option {
	return func(c *config) { c.walDir = dir }
}

// WithSyncPolicy sets the WAL fsync policy (default SyncAlways); it only
// has an effect together with Open or WithDurability.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(c *config) { c.walSync = p }
}

// Open recovers a durable DB from dir: the newest valid snapshot is
// loaded (falling back past a corrupt one), the write-ahead log is
// replayed through the incremental statistics maintainer, any torn log
// tail is truncated, and the DB is ready to query and update. An empty
// or missing dir starts an empty durable DB. Options apply as in Load;
// WithShapesGraph shapes are annotated against the recovered data.
func Open(dir string, opts ...Option) (*DB, error) {
	cfg := newConfig(opts)
	if cfg.replicaOf != "" {
		return nil, errors.New("rdfshapes: a durable primary cannot also be a replica; use OpenReplica")
	}
	mgr, base, batches, err := wal.Open(dir, wal.Options{FS: cfg.walFS, Sync: cfg.walSync.wal()})
	if err != nil {
		return nil, err
	}
	db, err := fromStoreCfg(base, cfg)
	if err != nil {
		mgr.Close()
		return nil, err
	}
	// Replay goes through the same apply path as live updates — overlay
	// commit plus incremental statistics maintenance — but without
	// re-logging, so recovered statistics match a from-scratch recompute
	// exactly for the maintained quantities.
	for _, b := range batches {
		db.applyBatch(live.Batch{Insert: b.Insert, Delete: b.Delete})
	}
	if len(batches) > 0 {
		db.refreshPlanner()
	}
	db.durable = mgr
	return db, nil
}

// attachDurability seeds a fresh durability directory with the DB's
// loaded dataset (the WithDurability path out of Load/LoadNTriples/
// LoadSnapshot).
func (db *DB) attachDurability(cfg config) error {
	mgr, err := wal.Create(cfg.walDir, wal.Options{FS: cfg.walFS, Sync: cfg.walSync.wal()},
		db.writeBaseSnapshot)
	if err != nil {
		if errors.Is(err, wal.ErrExists) {
			return fmt.Errorf("rdfshapes: %s holds existing durable state; recover it with Open instead of re-seeding: %w", cfg.walDir, err)
		}
		return err
	}
	db.durable = mgr
	return nil
}

// writeBaseSnapshot writes the just-loaded dataset in the store's
// binary snapshot format — the frozen base on an unsharded DB, the
// merged shard contents on a sharded one (no updates have been applied
// yet when the durability directory is seeded).
func (db *DB) writeBaseSnapshot(w io.Writer) error {
	if db.shards != nil {
		merged, err := db.shards.Merged()
		if err != nil {
			return err
		}
		return merged.WriteSnapshot(w)
	}
	return db.live.Base().WriteSnapshot(w)
}

// CheckpointStats reports one completed checkpoint.
type CheckpointStats struct {
	// Generation is the new snapshot/WAL generation number.
	Generation uint64
	// Triples is the dataset size the snapshot captured.
	Triples int
	// Duration is the checkpoint wall time, dominated by the snapshot
	// write and its fsyncs.
	Duration time.Duration
}

// Checkpoint compacts the dataset and durably installs it as a new
// snapshot generation, then rotates the write-ahead log and prunes
// generations older than the previous one. Updates wait for the
// checkpoint; queries do not. On a poisoned DB (ErrWALFailed) a
// successful checkpoint restores writability. Returns ErrNotDurable
// without a durability directory.
func (db *DB) Checkpoint() (*CheckpointStats, error) {
	if err := db.begin(); err != nil {
		return nil, err
	}
	defer db.end()
	if db.durable == nil {
		return nil, ErrNotDurable
	}
	db.updateMu.Lock()
	defer db.updateMu.Unlock()
	var base *store.Store
	if db.shards != nil {
		merged, err := db.shards.Merged()
		if err != nil {
			return nil, err
		}
		base = merged
	} else {
		snap, err := db.live.Compact()
		if err != nil {
			return nil, err
		}
		base = snap.Base()
	}
	start := time.Now()
	gen, err := db.durable.Checkpoint(base.WriteSnapshot)
	if err != nil {
		return nil, err
	}
	return &CheckpointStats{Generation: gen, Triples: base.Len(), Duration: time.Since(start)}, nil
}

// DurabilityStats is a point-in-time view of the durability subsystem.
type DurabilityStats struct {
	// Generation is the current snapshot/WAL generation.
	Generation uint64
	// LastSeq is the sequence number of the last logged commit.
	LastSeq uint64
	// WALSizeBytes is the active WAL file size, header included.
	WALSizeBytes int64
	// RecordsAppended counts commits logged since open.
	RecordsAppended int64
	// Checkpoints counts checkpoints completed since open.
	Checkpoints int64
	// Failed reports the WAL is poisoned: updates fail with
	// ErrWALFailed until a checkpoint succeeds.
	Failed bool
	// Recovered, RecordsReplayed, TornTruncations, and
	// SnapshotFallbacks describe what the opening recovery found.
	Recovered         bool
	RecordsReplayed   int
	TornTruncations   int
	SnapshotFallbacks int
}

// DurabilityStats returns the durability subsystem's state; ok is false
// (and the stats zero) when the DB is not durable.
func (db *DB) DurabilityStats() (s DurabilityStats, ok bool) {
	if db.durable == nil {
		return DurabilityStats{}, false
	}
	ws := db.durable.Stats()
	return DurabilityStats{
		Generation:        ws.Gen,
		LastSeq:           ws.LastSeq,
		WALSizeBytes:      ws.SizeBytes,
		RecordsAppended:   ws.Appended,
		Checkpoints:       ws.Checkpoints,
		Failed:            ws.Failed,
		Recovered:         ws.Recovery.Recovered,
		RecordsReplayed:   ws.Recovery.RecordsReplayed,
		TornTruncations:   ws.Recovery.TornTruncations,
		SnapshotFallbacks: ws.Recovery.SnapshotFallbacks,
	}, true
}

// Durable reports whether the DB has a durability directory attached.
func (db *DB) Durable() bool { return db.durable != nil }

// WAL exposes the write-ahead-log manager of a durable DB — the
// log-shipping source replicas tail (internal/server mounts the
// /repl/wal and /repl/snapshot endpoints over it); nil otherwise.
func (db *DB) WAL() *wal.Manager { return db.durable }
