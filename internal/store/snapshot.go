package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"rdfshapes/internal/rdf"
)

// snapshotMagic opens every snapshot. The format appends a CRC32C
// (Castagnoli) of the payload — everything between the magic and the
// trailing 4 checksum bytes — so a torn or bit-flipped file is rejected
// instead of decoded as if it were valid data. The unchecksummed
// RDFSNAP1 predecessor is refused like any other unknown magic.
const snapshotMagic = "RDFSNAP2"

// maxSnapshotString bounds string lengths read from snapshots, guarding
// against corrupted or hostile inputs.
const maxSnapshotString = 64 << 20

// ErrCorrupt marks a snapshot whose integrity check failed: a trailing
// checksum mismatch, a truncated body, or structurally invalid contents
// in the checksummed body. Callers holding an older checkpoint can
// match it with errors.Is and fall back instead of serving garbage.
var ErrCorrupt = errors.New("store: snapshot corrupt")

// castagnoli is the CRC32C polynomial table shared with internal/wal.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteSnapshot serializes the frozen store — dictionary plus triples —
// in a compact binary format readable by ReadSnapshot, protected by a
// trailing CRC32C. Only the SPO ordering is written; the other indexes
// are rebuilt on load.
func (s *Store) WriteSnapshot(w io.Writer) error {
	s.mustBeFrozen()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	crc := crc32.New(castagnoli)
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		crc.Write(scratch[:n])
		_, err := bw.Write(scratch[:n])
		return err
	}
	writeString := func(v string) error {
		if err := writeUvarint(uint64(len(v))); err != nil {
			return err
		}
		crc.Write([]byte(v))
		_, err := bw.WriteString(v)
		return err
	}

	// Dictionary: terms in ID order so IDs are implicit.
	if err := writeUvarint(uint64(s.dict.Len())); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	for id := ID(1); int(id) <= s.dict.Len(); id++ {
		t := s.dict.Term(id)
		crc.Write([]byte{byte(t.Kind)})
		if err := bw.WriteByte(byte(t.Kind)); err != nil {
			return fmt.Errorf("store: writing snapshot: %w", err)
		}
		for _, v := range []string{t.Value, t.Datatype, t.Lang} {
			if err := writeString(v); err != nil {
				return fmt.Errorf("store: writing snapshot: %w", err)
			}
		}
	}

	// Triples from the SPO index, delta-encoding subjects since the
	// index is sorted.
	if err := writeUvarint(uint64(len(s.spo))); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	var prevS ID
	for _, t := range s.spo {
		if err := writeUvarint(uint64(t.S - prevS)); err != nil {
			return fmt.Errorf("store: writing snapshot: %w", err)
		}
		prevS = t.S
		if err := writeUvarint(uint64(t.P)); err != nil {
			return fmt.Errorf("store: writing snapshot: %w", err)
		}
		if err := writeUvarint(uint64(t.O)); err != nil {
			return fmt.Errorf("store: writing snapshot: %w", err)
		}
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := bw.Write(sum[:]); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	return nil
}

// crcReader hashes every payload byte as it is consumed, so the decoder
// can compare its running checksum against the trailing CRC32C without
// buffering the whole snapshot.
type crcReader struct {
	br  *bufio.Reader
	crc hash.Hash32
}

func (r *crcReader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	if n > 0 {
		r.crc.Write(p[:n])
	}
	return n, err
}

func (r *crcReader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err == nil {
		r.crc.Write([]byte{b})
	}
	return b, err
}

// ReadSnapshot reconstructs a frozen store from WriteSnapshot output. A
// file that fails its checksum (or is otherwise structurally invalid)
// returns an error matching ErrCorrupt.
func ReadSnapshot(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("store: reading snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("store: not a snapshot (bad magic %q)", magic)
	}
	cr := &crcReader{br: br, crc: crc32.New(castagnoli)}
	s, err := readSnapshotBody(cr)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	want := cr.crc.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated checksum: %w", ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x)", ErrCorrupt, got, want)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after checksum", ErrCorrupt)
	}
	return s, nil
}

// readSnapshotBody decodes the dictionary and triple sections through
// the checksumming reader and returns the frozen store.
func readSnapshotBody(br *crcReader) (*Store, error) {
	readString := func() (string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return "", err
		}
		if n > maxSnapshotString {
			return "", fmt.Errorf("string length %d exceeds limit", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	s := New()
	nTerms, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot dictionary: %w", err)
	}
	for i := uint64(0); i < nTerms; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("store: reading snapshot term %d: %w", i, err)
		}
		if rdf.TermKind(kind) > rdf.Blank {
			return nil, fmt.Errorf("store: snapshot term %d has invalid kind %d", i, kind)
		}
		var fields [3]string
		for f := range fields {
			if fields[f], err = readString(); err != nil {
				return nil, fmt.Errorf("store: reading snapshot term %d: %w", i, err)
			}
		}
		term := rdf.Term{
			Kind:     rdf.TermKind(kind),
			Value:    fields[0],
			Datatype: fields[1],
			Lang:     fields[2],
		}
		if got := s.dict.Intern(term); got != ID(i+1) {
			return nil, fmt.Errorf("store: snapshot dictionary has duplicate term %s", term)
		}
	}

	nTriples, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot triple count: %w", err)
	}
	limit := uint64(s.dict.Len())
	var prevS uint64
	for i := uint64(0); i < nTriples; i++ {
		var vals [3]uint64
		for f := range vals {
			if vals[f], err = binary.ReadUvarint(br); err != nil {
				return nil, fmt.Errorf("store: reading snapshot triple %d: %w", i, err)
			}
		}
		subj := prevS + vals[0]
		prevS = subj
		if subj == 0 || subj > limit || vals[1] == 0 || vals[1] > limit || vals[2] == 0 || vals[2] > limit {
			return nil, fmt.Errorf("store: snapshot triple %d references unknown term", i)
		}
		s.staged = append(s.staged, IDTriple{S: ID(subj), P: ID(vals[1]), O: ID(vals[2])})
	}
	s.Freeze()
	return s, nil
}
