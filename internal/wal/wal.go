// Package wal is the durability subsystem: an append-only, checksummed
// write-ahead log of committed update batches plus checkpointed store
// snapshots, giving the live dataset crash recovery with a hard
// guarantee — after any crash, reopening the directory recovers exactly
// a prefix of the acknowledged commit sequence, never a torn or
// reordered state. See docs/DURABILITY.md for format diagrams and the
// crash matrix.
//
// Directory layout (one generation per checkpoint):
//
//	snap-<gen>.snap   checkpointed dataset (store snapshot format, CRC32C)
//	wal-<gen>.log     commits applied after snap-<gen> was taken
//
// A checkpoint writes snap-<gen+1> to a temp file, fsyncs, renames it
// into place, fsyncs the directory, then starts wal-<gen+1>; the
// previous generation is retained until the next checkpoint so a corrupt
// newest snapshot can fall back one level. Recovery picks the newest
// snapshot that passes its checksum, replays the WAL generations from
// there, and truncates the log at the first torn or corrupt record
// instead of failing the boot.
//
// Generation pairing is the core invariant: wal-<gen>.log contains
// exactly the commits applied after snap-<gen>.snap was taken and
// before snap-<gen+1> existed, so (snapshot gen, logs ≥ gen in order)
// is always a replayable prefix of the acknowledged commit sequence.
// The pairing is what makes the snapshot fallback safe — falling back
// from a corrupt snap-<g> to snap-<g-1> just extends the replay to
// wal-<g-1> followed by wal-<g>, reproducing the same logical state.
// Two corollaries the code and the fault-injection tests enforce:
// the snapshot rename is the *only* operation that advances the
// generation (a crash on either side leaves the old pairing intact),
// and a log is never deleted before the snapshot that supersedes it is
// durable in the directory.
package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"rdfshapes/internal/frame"
	"rdfshapes/internal/store"
)

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs the log before every append returns: an
	// acknowledged commit survives any crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the operating system: appends are
	// fast but commits acknowledged since the last fsync (checkpoint or
	// Close) can be lost in a crash — recovery still yields a clean
	// prefix, just possibly a shorter one.
	SyncNever
)

func (p SyncPolicy) String() string {
	if p == SyncNever {
		return "never"
	}
	return "always"
}

// ParseSyncPolicy parses "always" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always or never)", s)
}

// Options configures a Manager.
type Options struct {
	// FS is the filesystem to operate on; nil selects OsFS. Tests
	// substitute MemFS to inject faults and simulated crashes.
	FS FS
	// Sync is the append fsync policy.
	Sync SyncPolicy
}

func (o Options) fs() FS {
	if o.FS == nil {
		return OsFS{}
	}
	return o.FS
}

// Errors. ErrWALFailed poisons a Manager after an append could not be
// made durable: the in-memory dataset stays readable but further appends
// are refused, because acknowledging a commit the log may not hold would
// break the recovery guarantee. A successful Checkpoint clears the
// poison (the fresh snapshot re-establishes durability).
var (
	ErrWALFailed = errors.New("wal: log append failed; store is read-only until a successful checkpoint")
	ErrClosed    = errors.New("wal: manager is closed")
	ErrExists    = errors.New("wal: directory already contains durable state")
)

// RecoveryStats describes what Open found and repaired.
type RecoveryStats struct {
	// Recovered is true when existing durable state was opened (false:
	// the directory was empty and a fresh generation was initialized).
	Recovered bool
	// SnapshotGen is the generation of the snapshot recovered from.
	SnapshotGen uint64
	// SnapshotFallbacks counts corrupt snapshots skipped before a valid
	// one was found (the corrupt files are removed).
	SnapshotFallbacks int
	// RecordsReplayed counts WAL records replayed over the snapshot.
	RecordsReplayed int
	// TornTruncations counts torn or corrupt WAL tails truncated away.
	TornTruncations int
}

// Stats is a point-in-time view of the Manager, for observability.
type Stats struct {
	Gen         uint64
	LastSeq     uint64
	SizeBytes   int64 // active WAL file size, header included
	Appended    int64 // records appended since open
	Checkpoints int64 // checkpoints completed since open
	Failed      bool  // poisoned (see ErrWALFailed)
	Recovery    RecoveryStats
}

// Manager owns one durability directory: the active WAL generation plus
// the checkpointed snapshots. Append and Checkpoint are serialized by
// the caller's commit lock in normal operation, but the Manager also
// locks internally so misuse cannot corrupt the log.
type Manager struct {
	fs  FS
	dir string
	pol SyncPolicy

	mu          sync.Mutex
	f           File // active WAL, append position at end
	gen         uint64
	seq         uint64 // last sequence number appended or replayed
	size        int64  // active WAL size in bytes
	appended    int64
	checkpoints int64
	failed      error // first durability failure; nil when healthy
	rec         RecoveryStats
}

func snapName(gen uint64) string { return fmt.Sprintf("snap-%016d.snap", gen) }
func walName(gen uint64) string  { return fmt.Sprintf("wal-%016d.log", gen) }

// parseGen extracts the generation from a snap-/wal- file name; ok is
// false for names that are not exactly in the expected form.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	if len(digits) != 16 {
		return 0, false
	}
	var gen uint64
	for _, d := range digits {
		if d < '0' || d > '9' {
			return 0, false
		}
		gen = gen*10 + uint64(d-'0')
	}
	return gen, true
}

// HasState reports whether dir holds durable state (any snapshot or WAL
// file). A missing directory is simply empty.
func HasState(dir string, fs FS) (bool, error) {
	if fs == nil {
		fs = OsFS{}
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return false, nil // missing or unreadable: treated as no state
	}
	for _, n := range names {
		if _, ok := parseGen(n, "snap-", ".snap"); ok {
			return true, nil
		}
		if _, ok := parseGen(n, "wal-", ".log"); ok {
			return true, nil
		}
	}
	return false, nil
}

// Create initializes a fresh durability directory whose first checkpoint
// is written by write (typically store.WriteSnapshot of the just-loaded
// dataset). It fails with ErrExists when the directory already holds
// durable state, so attaching durability can never silently discard it.
func Create(dir string, opts Options, write func(io.Writer) error) (*Manager, error) {
	fs := opts.fs()
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	if has, _ := HasState(dir, fs); has {
		return nil, fmt.Errorf("%w: %s", ErrExists, dir)
	}
	m := &Manager{fs: fs, dir: dir, pol: opts.Sync}
	if err := m.initialize(1, write); err != nil {
		return nil, err
	}
	return m, nil
}

// Open recovers a durability directory: it loads the newest valid
// snapshot (falling back past corrupt ones), collects the WAL batches to
// replay over it, truncates any torn tail, and leaves the Manager ready
// to append. An empty directory is initialized with an empty dataset.
// The caller replays the returned batches — in order, without re-logging
// them — before serving traffic.
func Open(dir string, opts Options) (*Manager, *store.Store, []Batch, error) {
	fs := opts.fs()
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, nil, fmt.Errorf("wal: opening %s: %w", dir, err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}

	snaps := map[uint64]bool{}
	wals := map[uint64]bool{}
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			_ = fs.Remove(filepath.Join(dir, n)) // interrupted checkpoint leftovers
			continue
		}
		if g, ok := parseGen(n, "snap-", ".snap"); ok {
			snaps[g] = true
		}
		if g, ok := parseGen(n, "wal-", ".log"); ok {
			wals[g] = true
		}
	}

	m := &Manager{fs: fs, dir: dir, pol: opts.Sync}

	if len(snaps) == 0 {
		if len(wals) > 0 {
			return nil, nil, nil, fmt.Errorf("wal: %s has WAL files but no snapshot; refusing to guess a base state", dir)
		}
		empty := store.New()
		empty.Freeze()
		if err := m.initialize(1, empty.WriteSnapshot); err != nil {
			return nil, nil, nil, err
		}
		return m, empty, nil, nil
	}

	// Newest snapshot that passes its integrity check wins; corrupt ones
	// are removed so the next recovery does not trip over them again.
	snapGens := sortedGens(snaps)
	var base *store.Store
	var sgen uint64
	for i := len(snapGens) - 1; i >= 0; i-- {
		g := snapGens[i]
		data, rerr := fs.ReadFile(filepath.Join(dir, snapName(g)))
		if rerr == nil {
			st, derr := store.ReadSnapshot(data)
			if derr == nil {
				base, sgen = st, g
				break
			}
		}
		m.rec.SnapshotFallbacks++
		_ = fs.Remove(filepath.Join(dir, snapName(g)))
	}
	if base == nil {
		return nil, nil, nil, fmt.Errorf("wal: every snapshot in %s is corrupt; cannot establish a base state", dir)
	}
	m.rec.Recovered = true
	m.rec.SnapshotGen = sgen

	// Replay WAL generations contiguously from the snapshot's. A torn
	// record ends replay: everything behind it is truncated or removed,
	// because records past a tear are not a prefix of the commit order.
	var batches []Batch
	lastSeq := uint64(0)
	activeGen := sgen
	activeSize := int64(frame.HeaderLen)
	stop := false
	for g := sgen; ; g++ {
		if !wals[g] {
			break
		}
		if stop {
			_ = fs.Remove(filepath.Join(dir, walName(g)))
			continue
		}
		path := filepath.Join(dir, walName(g))
		data, rerr := fs.ReadFile(path)
		if rerr != nil {
			return nil, nil, nil, fmt.Errorf("wal: reading %s: %w", path, rerr)
		}
		n, tear := ScanLog(data, g, func(seq uint64, b Batch) error {
			if seq <= lastSeq {
				return fmt.Errorf("wal: sequence %d not after %d", seq, lastSeq)
			}
			lastSeq = seq
			batches = append(batches, b)
			return nil
		})
		if n == 0 {
			// The header itself is torn (a crash during WAL creation) or
			// the file is not ours: it holds nothing replayable. Recreate
			// it empty; anything it contained was never acknowledged.
			if err := m.startWAL(g); err != nil {
				return nil, nil, nil, err
			}
			m.rec.TornTruncations++
			activeGen, activeSize = g, int64(frame.HeaderLen)
			stop = true
			continue
		}
		activeGen, activeSize = g, int64(n)
		if tear != nil {
			if err := fs.Truncate(path, int64(n)); err != nil {
				return nil, nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
			}
			m.rec.TornTruncations++
			stop = true
		}
	}
	m.rec.RecordsReplayed = len(batches)

	// Snapshots newer than where replay ended are unreachable forward
	// states (their WAL is gone or was dropped); remove them so they can
	// never shadow the recovered prefix.
	for _, g := range snapGens {
		if g > activeGen {
			_ = fs.Remove(filepath.Join(dir, snapName(g)))
		}
	}

	if !wals[activeGen] {
		// Crash between a checkpoint's snapshot rename and its WAL
		// creation: the snapshot is complete and authoritative, the WAL
		// just needs to exist.
		if err := m.startWAL(activeGen); err != nil {
			return nil, nil, nil, err
		}
		activeSize = int64(frame.HeaderLen)
	} else {
		f, err := fs.Append(filepath.Join(dir, walName(activeGen)))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("wal: opening active log: %w", err)
		}
		m.f = f
	}
	m.gen = activeGen
	m.seq = lastSeq
	m.size = activeSize
	m.prune()
	return m, base, batches, nil
}

// sortedGens returns the keys of a generation set in ascending order.
func sortedGens(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// startWAL creates wal-<gen> as a fresh, fsynced, header-only file and
// makes it the active log, closing the previous one. On failure the new
// file is removed (best effort) and the active log is unchanged.
func (m *Manager) startWAL(gen uint64) error {
	path := filepath.Join(m.dir, walName(gen))
	f, err := m.fs.Create(path)
	if err != nil {
		return fmt.Errorf("wal: starting %s: %w", path, err)
	}
	if _, err = f.Write(frame.AppendHeader(nil, walMagic, gen)); err == nil {
		if err = f.Sync(); err == nil {
			err = m.fs.SyncDir(m.dir)
		}
	}
	if err != nil {
		f.Close()
		_ = m.fs.Remove(path)
		return fmt.Errorf("wal: starting %s: %w", path, err)
	}
	if m.f != nil {
		m.f.Close() // obsolete generation; nothing in it is needed anymore
	}
	m.f = f
	return nil
}

// initialize writes the first checkpoint (snapshot + empty WAL) of a
// fresh directory at the given generation.
func (m *Manager) initialize(gen uint64, write func(io.Writer) error) error {
	if err := m.writeSnapshot(gen, write); err != nil {
		return err
	}
	if err := m.startWAL(gen); err != nil {
		return err
	}
	m.gen = gen
	m.size = int64(frame.HeaderLen)
	return nil
}

// writeSnapshot durably installs snap-<gen>: temp file, fsync, rename,
// directory fsync — the previous snapshot is never touched.
func (m *Manager) writeSnapshot(gen uint64, write func(io.Writer) error) error {
	final := filepath.Join(m.dir, snapName(gen))
	tmp := final + ".tmp"
	f, err := m.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		_ = m.fs.Remove(tmp)
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = m.fs.Remove(tmp)
		return fmt.Errorf("wal: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = m.fs.Remove(tmp)
		return fmt.Errorf("wal: closing snapshot: %w", err)
	}
	if err := m.fs.Rename(tmp, final); err != nil {
		_ = m.fs.Remove(tmp)
		return fmt.Errorf("wal: installing snapshot: %w", err)
	}
	if err := m.fs.SyncDir(m.dir); err != nil {
		_ = m.fs.Remove(final)
		return fmt.Errorf("wal: syncing snapshot directory: %w", err)
	}
	return nil
}

// Append logs one committed batch. Under SyncAlways it returns only
// after the record is on stable storage; the caller acknowledges the
// commit afterwards, which is what makes recovery a superset of every
// acknowledgement. A failure poisons the Manager (ErrWALFailed).
func (m *Manager) Append(b Batch) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return ErrClosed
	}
	if m.failed != nil {
		return fmt.Errorf("%w (cause: %v)", ErrWALFailed, m.failed)
	}
	m.seq++
	rec := encodeRecord(m.seq, b)
	if _, err := m.f.Write(rec); err != nil {
		m.failed = err
		return fmt.Errorf("%w (cause: %v)", ErrWALFailed, err)
	}
	if m.pol == SyncAlways {
		if err := m.f.Sync(); err != nil {
			m.failed = err
			return fmt.Errorf("%w (cause: %v)", ErrWALFailed, err)
		}
	}
	m.size += int64(len(rec))
	m.appended++
	return nil
}

// Checkpoint installs a new generation: write writes the full current
// dataset (the caller must hold its commit lock so no append can land
// between the snapshot contents and the log rotation), then the WAL is
// rotated and generations older than the previous one are pruned. On
// success the poison flag is cleared — the fresh snapshot restored
// durability. Returns the new generation.
func (m *Manager) Checkpoint(write func(io.Writer) error) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return 0, ErrClosed
	}
	newGen := m.gen + 1
	if err := m.writeSnapshot(newGen, write); err != nil {
		return 0, err // nothing installed; the old generation stays authoritative
	}
	// From here the new snapshot is durable and would win recovery: the
	// rotation must complete, or the snapshot must be removed, before
	// any further append — otherwise post-checkpoint commits would land
	// in a log generation recovery no longer reads.
	if err := m.startWAL(newGen); err != nil {
		if rerr := m.fs.Remove(filepath.Join(m.dir, snapName(newGen))); rerr != nil {
			m.failed = fmt.Errorf("checkpoint rotation failed (%v) and snapshot rollback failed (%v)", err, rerr)
		}
		return 0, fmt.Errorf("wal: rotating log: %w", err)
	}
	m.gen = newGen
	m.size = int64(frame.HeaderLen)
	m.checkpoints++
	m.failed = nil
	m.prune()
	return newGen, nil
}

// prune removes generations older than the previous one (kept as the
// corrupt-snapshot fallback). Best effort: a leftover file is re-pruned
// on the next checkpoint or open. Called with m.mu held.
func (m *Manager) prune() {
	if m.gen < 2 {
		return
	}
	keep := m.gen - 1
	names, err := m.fs.ReadDir(m.dir)
	if err != nil {
		return
	}
	for _, n := range names {
		if g, ok := parseGen(n, "snap-", ".snap"); ok && g < keep {
			_ = m.fs.Remove(filepath.Join(m.dir, n))
		}
		if g, ok := parseGen(n, "wal-", ".log"); ok && g < keep {
			_ = m.fs.Remove(filepath.Join(m.dir, n))
		}
	}
}

// Close syncs and closes the active log. Further appends fail with
// ErrClosed. Idempotent.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return nil
	}
	var err error
	if m.failed == nil {
		err = m.f.Sync() // flush SyncNever tails so a clean shutdown loses nothing
	}
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	m.f = nil
	return err
}

// Stats returns a point-in-time view for observability surfaces.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Gen:         m.gen,
		LastSeq:     m.seq,
		SizeBytes:   m.size,
		Appended:    m.appended,
		Checkpoints: m.checkpoints,
		Failed:      m.failed != nil,
		Recovery:    m.rec,
	}
}

// Dir returns the durability directory.
func (m *Manager) Dir() string { return m.dir }
