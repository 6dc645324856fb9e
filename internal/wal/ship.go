package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
)

// Log shipping: the replication read surface of a Manager. A follower
// (internal/repl) asks for "everything after (generation, seq)" and the
// primary answers with one Segment per on-disk WAL generation from the
// requested one to the current one — each holding the framed records
// with a sequence number past the follower's high-water mark. Because
// wal-<gen>.log contains exactly the commits applied after snap-<gen>
// was taken, a follower that loads snap-<gen> and then tails from
// (gen, 0) replays precisely the primary's acknowledged commit
// sequence, in order, with no gap and no duplicate.
//
// Checkpoints prune generations older than gen-1, so a follower that
// falls more than one checkpoint behind asks for a generation that no
// longer exists: ReadSegments answers ErrGenPruned and the follower
// restarts from a fresh snapshot (SnapshotData) instead.

// ErrGenPruned reports that the requested WAL generation has been
// checkpointed away; the follower must re-bootstrap from the current
// snapshot. Test with errors.Is.
var ErrGenPruned = errors.New("wal: requested generation has been pruned; bootstrap from the current snapshot")

// Segment is one generation's worth of shipped records: the framed
// record bytes (the WAL file contents after its header, filtered to
// sequence numbers past the follower's high-water mark). Records may be
// empty — an empty segment still tells the follower the generation
// exists, which is how it learns about a rotation with no commits yet.
type Segment struct {
	Gen     uint64
	Records []byte
}

// ReadSegments returns the shippable log suffix after (fromGen,
// fromSeq): one Segment per generation from fromGen through the current
// one, each carrying the valid framed records with seq > fromSeq. The
// current generation and last appended sequence number are returned so
// the follower can tell whether it has caught up. ErrGenPruned is
// returned when fromGen is no longer on disk (or is from a future the
// primary never had — a divergent follower must also re-bootstrap).
//
// The active file is read while appends continue; scanning stops at the
// first torn frame, so a read racing an in-flight append simply serves
// a slightly shorter — still valid — prefix.
func (m *Manager) ReadSegments(fromGen, fromSeq uint64) ([]Segment, uint64, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return nil, 0, 0, ErrClosed
	}
	if fromGen > m.gen || fromGen == 0 {
		return nil, m.gen, m.seq, fmt.Errorf("%w (requested %d, current %d)", ErrGenPruned, fromGen, m.gen)
	}
	var segs []Segment
	for g := fromGen; g <= m.gen; g++ {
		data, err := m.fs.ReadFile(filepath.Join(m.dir, walName(g)))
		if err != nil {
			if g == fromGen {
				return nil, m.gen, m.seq, fmt.Errorf("%w (requested %d, current %d)", ErrGenPruned, fromGen, m.gen)
			}
			// A gap after the first generation would break replay order;
			// it cannot happen in a healthy directory (rotation creates
			// the file before the generation advances).
			return nil, m.gen, m.seq, fmt.Errorf("wal: generation %d missing mid-ship", g)
		}
		if hdrGen, err := decodeHeader(data); err != nil || hdrGen != g {
			return nil, m.gen, m.seq, fmt.Errorf("wal: shipping %s: bad header", walName(g))
		}
		segs = append(segs, Segment{Gen: g, Records: recordsAfter(data[walHeaderLen:], fromSeq)})
	}
	return segs, m.gen, m.seq, nil
}

// recordsAfter returns the byte range of the valid record prefix of data
// whose sequence numbers exceed fromSeq. Sequence numbers are strictly
// increasing within a file, so the result is a contiguous suffix of the
// valid prefix.
func recordsAfter(data []byte, fromSeq uint64) []byte {
	start := -1
	end, _ := scanRecords(data, func(seq uint64, b Batch) error {
		return nil
	})
	off := 0
	for off < end {
		plen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		seq, _ := binary.Uvarint(data[off+frameLen:])
		if seq > fromSeq {
			start = off
			break
		}
		off += frameLen + plen
	}
	if start < 0 {
		return nil
	}
	out := make([]byte, end-start)
	copy(out, data[start:end])
	return out
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

// Segment wire format, used by the /repl/wal response body:
//
//	segment := magic "RPLSEG01" (8 bytes) | gen (8 bytes LE)
//	           | recordsLen (8 bytes LE) | records
//	records  := framed WAL records (len | crc32c | payload), as on disk
//
// Segments are self-delimiting, so a torn response decodes to a valid
// prefix: DecodeSegments replays every complete record it can prove
// intact and reports the tear, and the follower — which tracks its
// applied sequence number — simply re-requests from where it stopped.

const segMagic = "RPLSEG01"

var errSegTorn = errors.New("wal: torn segment stream")

// IsTorn reports whether a DecodeSegments error marks a truncated or
// corrupt stream tail — the expected outcome of a connection cut mid-
// ship, recoverable by re-requesting from the last applied offset.
func IsTorn(err error) bool { return errors.Is(err, errSegTorn) }

// EncodeSegments renders segments in the wire format.
func EncodeSegments(segs []Segment) []byte {
	var out []byte
	for _, s := range segs {
		out = append(out, segMagic...)
		var hdr [16]byte
		binary.LittleEndian.PutUint64(hdr[0:8], s.Gen)
		binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(s.Records)))
		out = append(out, hdr[:]...)
		out = append(out, s.Records...)
	}
	return out
}

// DecodeSegments walks an encoded segment stream, calling fn for every
// intact record with its generation and sequence number, and gen for
// every segment header (including empty segments, so a follower's
// generation cursor advances past commit-free rotations). The header's
// generation carries no checksum, so gen vets it: returning false
// rejects the header as corrupt. A torn or corrupt tail, or a rejected
// header, stops the walk with an IsTorn error after every complete
// record before it has been delivered; an error from fn stops the walk
// and is returned as-is.
func DecodeSegments(data []byte, gen func(g uint64) bool, fn func(g, seq uint64, b Batch) error) error {
	off := 0
	for off < len(data) {
		if len(data)-off < len(segMagic)+16 {
			return fmt.Errorf("%w: truncated segment header at offset %d", errSegTorn, off)
		}
		if string(data[off:off+len(segMagic)]) != segMagic {
			return fmt.Errorf("%w: bad segment magic at offset %d", errSegTorn, off)
		}
		g := binary.LittleEndian.Uint64(data[off+8 : off+16])
		n := binary.LittleEndian.Uint64(data[off+16 : off+24])
		if gen != nil && !gen(g) {
			return fmt.Errorf("%w: unexpected segment generation %d at offset %d", errSegTorn, g, off)
		}
		off += len(segMagic) + 16
		if n > uint64(len(data)-off) {
			// The segment body is cut short: replay what is intact.
			var ferr error
			_, tear := scanRecords(data[off:], func(seq uint64, b Batch) error {
				ferr = fn(g, seq, b)
				return ferr
			})
			if ferr != nil {
				return ferr
			}
			_ = tear // a tear here is expected; the header already lied
			return fmt.Errorf("%w: truncated segment body at offset %d", errSegTorn, off)
		}
		var ferr error
		valid, tear := scanRecords(data[off:off+int(n)], func(seq uint64, b Batch) error {
			ferr = fn(g, seq, b)
			return ferr
		})
		if ferr != nil {
			return ferr
		}
		if tear != nil || valid != int(n) {
			return fmt.Errorf("%w: corrupt records in segment gen %d: %v", errSegTorn, g, tear)
		}
		off += int(n)
	}
	return nil
}
