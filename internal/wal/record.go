package wal

import (
	"encoding/binary"
	"fmt"

	"rdfshapes/internal/frame"
	"rdfshapes/internal/rdf"
)

// WAL file layout, on the internal/frame codec:
//
//	file    := frame header ("RDFWAL01", generation) | frame record*
//	payload := seq uvarint | nInsert uvarint | nDelete uvarint
//	           | nInsert triples | nDelete triples
//	triple  := term term term
//
// Records are append-only; a record is durable once its bytes and every
// byte before it are fsynced. Recovery scans records in order and stops
// at the first frame that is torn (fewer bytes than the frame announces)
// or corrupt (checksum or structural mismatch), truncating the file back
// to the end of the last valid record — the tail past an fsync barrier
// is by definition unacknowledged, so dropping it never loses an
// acknowledged commit. A /repl/wal body is the header plus a suffix of
// the records, and a follower decodes it with the same ScanLog.

const walMagic = "RDFWAL01"

// Batch is one durably logged commit: the triples a SPARQL UPDATE
// operation asked to insert and delete. Replay re-applies batches in log
// order through the live store, which makes the log independent of
// dictionary IDs and idempotent under set semantics.
type Batch struct {
	Insert []rdf.Triple
	Delete []rdf.Triple
}

// encodeRecord renders one framed record.
func encodeRecord(seq uint64, b Batch) []byte {
	p := binary.AppendUvarint(nil, seq)
	p = binary.AppendUvarint(p, uint64(len(b.Insert)))
	p = binary.AppendUvarint(p, uint64(len(b.Delete)))
	for _, ts := range [2][]rdf.Triple{b.Insert, b.Delete} {
		for _, t := range ts {
			p = frame.AppendTerm(frame.AppendTerm(frame.AppendTerm(p, t.S), t.P), t.O)
		}
	}
	return frame.AppendRecord(nil, p)
}

// decodeRecord parses one record payload.
func decodeRecord(payload []byte) (uint64, Batch, error) {
	c := frame.NewCursor(payload)
	seq := c.Uvarint()
	var b Batch
	nIns := c.Count(3 * frame.MinTermLen)
	nDel := c.Count(3 * frame.MinTermLen)
	b.Insert = triples(c, nIns)
	b.Delete = triples(c, nDel)
	return seq, b, c.Done()
}

func triples(c *frame.Cursor, n int) []rdf.Triple {
	if n == 0 {
		return nil
	}
	out := make([]rdf.Triple, n)
	for i := range out {
		out[i] = rdf.Triple{S: c.Term(), P: c.Term(), O: c.Term()}
	}
	return out
}

// ScanLog walks a WAL file image: wal-<gen>.log as recovery reads it, or
// a /repl/wal body, which is that file's header plus a suffix of its
// records. It checks that the header names generation gen, then calls fn
// for every valid record in order. It returns the length of the valid
// prefix, header included (0 when the header is torn or names another
// generation), and nil when data ends on a record boundary; otherwise a
// frame.ErrTorn tear. An error from fn stops the scan before that record
// and is returned as is.
func ScanLog(data []byte, gen uint64, fn func(seq uint64, b Batch) error) (int, error) {
	hdrGen, err := frame.ParseHeader(data, walMagic)
	if err == nil && hdrGen != gen {
		err = fmt.Errorf("%w: header names generation %d, want %d", frame.ErrTorn, hdrGen, gen)
	}
	if err != nil {
		return 0, err
	}
	n, err := frame.Scan(data[frame.HeaderLen:], func(payload []byte) error {
		seq, b, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		return fn(seq, b)
	})
	return frame.HeaderLen + n, err
}
