package store

import (
	"errors"
	"fmt"
	"io"

	"rdfshapes/internal/frame"
)

// snapshotMagic opens every snapshot, a sealed file on the internal/frame
// codec: magic | body | crc32c(body). The body is the term count, the
// terms in ID order, the triple count, and the SPO-sorted triples as
// (subject delta, predicate, object) uvarints. The unchecksummed
// RDFSNAP1 predecessor is refused like any other unknown magic.
const snapshotMagic = "RDFSNAP2"

// ErrCorrupt marks a snapshot that failed its integrity check: a bad
// magic, a checksum mismatch, a truncated file, or structurally invalid
// contents in the checksummed body. Callers holding an older checkpoint
// can match it with errors.Is and fall back instead of serving garbage.
var ErrCorrupt = errors.New("store: snapshot corrupt")

// WriteSnapshot serializes the frozen store — dictionary plus triples —
// streaming it through a frame.Sealer. Only the SPO ordering is written;
// the other indexes are rebuilt on load.
func (s *Store) WriteSnapshot(w io.Writer) error {
	s.mustBeFrozen()
	sw := frame.NewSealer(w, snapshotMagic)
	sw.Uvarint(uint64(s.dict.Len()))
	for id := ID(1); int(id) <= s.dict.Len(); id++ {
		sw.Term(s.dict.Term(id))
	}
	sw.Uvarint(uint64(len(s.spo)))
	var prevS ID
	for _, t := range s.spo {
		sw.Uvarint(uint64(t.S - prevS))
		sw.Uvarint(uint64(t.P))
		sw.Uvarint(uint64(t.O))
		prevS = t.S
	}
	if err := sw.Close(); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot reconstructs a frozen store from WriteSnapshot output. It
// verifies the checksum before decoding anything; every failure matches
// ErrCorrupt.
func ReadSnapshot(data []byte) (*Store, error) {
	s, err := decodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return s, nil
}

func decodeSnapshot(data []byte) (*Store, error) {
	body, err := frame.Unseal(data, snapshotMagic)
	if err != nil {
		return nil, err
	}
	c := frame.NewCursor(body)
	s := New()
	nTerms := c.Count(frame.MinTermLen)
	for i := 0; i < nTerms; i++ {
		term := c.Term()
		if err := c.Err(); err != nil {
			return nil, err
		}
		if s.dict.Intern(term) != ID(i+1) {
			return nil, fmt.Errorf("duplicate term %s", term)
		}
	}
	nTriples := c.Count(3)
	limit := uint64(s.dict.Len())
	s.staged = make([]IDTriple, 0, nTriples)
	var prevS uint64
	for i := 0; i < nTriples; i++ {
		subj, p, o := prevS+c.Uvarint(), c.Uvarint(), c.Uvarint()
		if err := c.Err(); err != nil {
			return nil, err
		}
		if subj == 0 || subj > limit || p == 0 || p > limit || o == 0 || o > limit {
			return nil, fmt.Errorf("triple %d references an unknown term", i)
		}
		prevS = subj
		s.staged = append(s.staged, IDTriple{S: ID(subj), P: ID(p), O: ID(o)})
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	s.Freeze()
	return s, nil
}
