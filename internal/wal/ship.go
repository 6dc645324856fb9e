package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"

	"rdfshapes/internal/frame"
)

// Log shipping: the replication read surface of a Manager. A follower
// (internal/repl) asks for "generation gen after seq from" and the
// primary answers with that generation's log segment: the header of
// wal-<gen>.log plus its valid records past from, a suffix of the file a
// follower decodes with the same ScanLog recovery runs. Because
// wal-<gen>.log contains exactly the commits applied after snap-<gen>
// was taken, a follower that loads snap-<gen> and then tails from
// (gen, 0), moving to gen+1 once gen is exhausted, replays precisely the
// primary's acknowledged commit sequence, in order, with no gap and no
// duplicate.
//
// Checkpoints prune generations older than gen-1, so a follower that
// falls more than one checkpoint behind asks for a generation that no
// longer exists: ReadSegment answers ErrGenPruned and the follower
// restarts from a fresh snapshot (SnapshotData) instead.

// ErrGenPruned reports that the requested WAL generation has been
// checkpointed away; the follower must re-bootstrap from the current
// snapshot. Test with errors.Is.
var ErrGenPruned = errors.New("wal: requested generation has been pruned; bootstrap from the current snapshot")

// ReadSegment returns generation gen's log segment after seq from, the
// current generation, and the sequence number the segment must bring its
// reader to: the last appended one when gen is current; otherwise the
// last one gen logged, or from when gen logged nothing after it. A reader
// left short of that target was cut on a record boundary. ErrGenPruned
// is returned when gen is no longer on disk (or is from a future the
// primary never had — a divergent follower must also re-bootstrap).
//
// Serving verifies every record's checksum but decodes only its sequence
// number. The active file is read while appends continue; scanning stops
// at the first torn frame, so a read racing an in-flight append simply
// serves a slightly shorter — still valid — prefix.
func (m *Manager) ReadSegment(gen, from uint64) (seg []byte, curGen, target uint64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return nil, 0, 0, ErrClosed
	}
	pruned := fmt.Errorf("%w (requested %d, current %d)", ErrGenPruned, gen, m.gen)
	if gen > m.gen || gen == 0 {
		return nil, m.gen, m.seq, pruned
	}
	data, err := m.fs.ReadFile(filepath.Join(m.dir, walName(gen)))
	if err != nil {
		return nil, m.gen, m.seq, pruned
	}
	if hdrGen, err := frame.ParseHeader(data, walMagic); err != nil || hdrGen != gen {
		return nil, m.gen, m.seq, fmt.Errorf("wal: shipping %s: bad header", walName(gen))
	}
	recs := data[frame.HeaderLen:]
	start, off, last := -1, 0, from
	end, _ := frame.Scan(recs, func(payload []byte) error {
		seq, n := binary.Uvarint(payload)
		if n <= 0 {
			return frame.ErrTorn
		}
		if seq > from && start < 0 {
			start = off
		}
		last = max(last, seq)
		off += frame.FrameLen + len(payload)
		return nil
	})
	target = m.seq
	if gen < m.gen {
		target = last
	}
	// The segment reuses data: the records move down next to the header
	// (append copies with memmove, so the overlap is safe).
	seg = data[:frame.HeaderLen]
	if start >= 0 {
		seg = append(seg, recs[start:end]...)
	}
	return seg, m.gen, target, nil
}

// SnapshotData returns the current generation's durable snapshot bytes,
// for streaming to a bootstrapping follower. The snapshot at generation
// g pairs with tailing from (g, 0).
func (m *Manager) SnapshotData() (uint64, []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return 0, nil, ErrClosed
	}
	data, err := m.fs.ReadFile(filepath.Join(m.dir, snapName(m.gen)))
	if err != nil {
		return 0, nil, fmt.Errorf("wal: reading snapshot for shipping: %w", err)
	}
	return m.gen, data, nil
}
