// Framed scan wire protocol. The raw N-Triples body the seam started
// with cannot distinguish "stream ended" from "stream was cut": a mid-
// body truncation on a whole-line boundary parses cleanly and yields a
// silently short scan. The framed protocol makes every fault typed:
//
//	stream := magic "RSHSCAN1" | frame* | eosFrame
//	frame  := type (1 byte, 'D') | payloadLen (4 bytes BE) | payload |
//	          crc32c(type|payloadLen|payload) (4 bytes BE)
//	eos    := type 'E' | len=8 | rowCount (8 bytes BE) | crc32c
//
// Data payloads are whole N-Triples lines (never a line split across
// frames), so each frame decodes independently. The EOS trailer carries
// the total row count: a stream that ends without EOS is truncated, a
// frame whose CRC mismatches is corrupt, and an EOS whose count differs
// from the rows delivered is torn — all distinct, all detectable.
package shard

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// scanMagic opens every framed scan stream.
	scanMagic = "RSHSCAN1"
	// ScanContentType is the media type a client sends in Accept to
	// request framing and the server sets on framed responses. It is
	// the only scan body: the server answers 406 without it, and the
	// client rejects a 200 of any other type.
	ScanContentType = "application/vnd.rdfshapes-scan.v1"

	frameData byte = 'D'
	frameEOS  byte = 'E'

	// MaxFramePayload bounds a single frame so a corrupt or malicious
	// length field cannot make the decoder allocate unbounded memory.
	MaxFramePayload = 1 << 20
	// DefaultFrameBytes is the target payload size the writer flushes
	// at; small enough to stream, large enough to amortize the CRC.
	DefaultFrameBytes = 64 << 10
)

// Typed stream-fault sentinels. Remote classifies decode failures with
// these so callers (and the retry loop) can tell corruption from
// truncation.
var (
	// ErrFrameCorrupt marks a protocol violation: bad magic, unknown
	// frame type, oversized length, CRC mismatch, or a row-count
	// mismatch at EOS.
	ErrFrameCorrupt = errors.New("shard: scan stream corrupt")
	// ErrScanTruncated marks a stream that ended before its EOS
	// trailer: bytes were lost in flight.
	ErrScanTruncated = errors.New("shard: scan stream truncated")
)

// castagnoli is the CRC32C table, matching the WAL and snapshot
// formats.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameWriter accumulates N-Triples lines and emits them as checksummed
// frames of roughly target bytes. Not safe for concurrent use.
type frameWriter struct {
	w      io.Writer
	buf    []byte
	target int
	rows   uint64
	frames int64
}

func newFrameWriter(w io.Writer, target int) *frameWriter {
	if target <= 0 {
		target = DefaultFrameBytes
	}
	if target > MaxFramePayload {
		target = MaxFramePayload
	}
	return &frameWriter{w: w, target: target, buf: make([]byte, 0, target)}
}

// writeHeader emits the stream magic; call once before any frame.
func (fw *frameWriter) writeHeader() error {
	_, err := io.WriteString(fw.w, scanMagic)
	return err
}

// addLine appends one complete N-Triples line (with trailing newline)
// and flushes a frame when the target size is reached. Returns
// (flushed, err) so the handler can decide when to http.Flush.
func (fw *frameWriter) addLine(line []byte) (bool, error) {
	fw.buf = append(fw.buf, line...)
	fw.rows++
	if len(fw.buf) >= fw.target {
		return true, fw.flushFrame()
	}
	return false, nil
}

// flushFrame emits the buffered lines as one data frame.
func (fw *frameWriter) flushFrame() error {
	if len(fw.buf) == 0 {
		return nil
	}
	err := writeFrame(fw.w, frameData, fw.buf)
	fw.buf = fw.buf[:0]
	if err == nil {
		fw.frames++
	}
	return err
}

// close flushes any buffered frame and writes the EOS trailer carrying
// the total row count.
func (fw *frameWriter) close() error {
	if err := fw.flushFrame(); err != nil {
		return err
	}
	var count [8]byte
	binary.BigEndian.PutUint64(count[:], fw.rows)
	if err := writeFrame(fw.w, frameEOS, count[:]); err != nil {
		return err
	}
	fw.frames++
	return nil
}

// writeFrame emits one frame: type, length, payload, CRC32C over all
// three.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, hdr[:])
	crc = crc32.Update(crc, castagnoli, payload)
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	_, err := w.Write(trailer[:])
	return err
}

// frameReader decodes a framed scan stream with bounded memory: one
// frame payload at a time, reusing its buffer across frames.
type frameReader struct {
	r      *bufio.Reader
	buf    []byte
	rows   uint64 // rows the caller reports decoded, checked at EOS
	sawEOS bool
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 32<<10)}
}

// readHeader consumes and verifies the stream magic.
func (fr *frameReader) readHeader() error {
	var magic [len(scanMagic)]byte
	if _, err := io.ReadFull(fr.r, magic[:]); err != nil {
		return fmt.Errorf("%w: reading magic: %v", ErrScanTruncated, err)
	}
	if string(magic[:]) != scanMagic {
		return fmt.Errorf("%w: bad magic %q", ErrFrameCorrupt, magic[:])
	}
	return nil
}

// countRows records rows the caller decoded from the last payload, for
// the EOS cross-check.
func (fr *frameReader) countRows(n int) { fr.rows += uint64(n) }

// next returns the next data payload, or (nil, true, nil) at a valid
// EOS. The payload is only valid until the following next call.
func (fr *frameReader) next() ([]byte, bool, error) {
	if fr.sawEOS {
		return nil, true, nil
	}
	var hdr [5]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return nil, false, fmt.Errorf("%w: reading frame header: %v", ErrScanTruncated, err)
	}
	typ := hdr[0]
	if typ != frameData && typ != frameEOS {
		return nil, false, fmt.Errorf("%w: unknown frame type %#02x", ErrFrameCorrupt, typ)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFramePayload {
		return nil, false, fmt.Errorf("%w: frame length %d exceeds limit", ErrFrameCorrupt, n)
	}
	if typ == frameEOS && n != 8 {
		return nil, false, fmt.Errorf("%w: EOS payload length %d", ErrFrameCorrupt, n)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, false, fmt.Errorf("%w: reading frame payload: %v", ErrScanTruncated, err)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(fr.r, trailer[:]); err != nil {
		return nil, false, fmt.Errorf("%w: reading frame crc: %v", ErrScanTruncated, err)
	}
	crc := crc32.Update(0, castagnoli, hdr[:])
	crc = crc32.Update(crc, castagnoli, payload)
	if got := binary.BigEndian.Uint32(trailer[:]); got != crc {
		return nil, false, fmt.Errorf("%w: frame crc %#08x, want %#08x", ErrFrameCorrupt, got, crc)
	}
	if typ == frameEOS {
		fr.sawEOS = true
		if want := binary.BigEndian.Uint64(payload); want != fr.rows {
			return nil, true, fmt.Errorf("%w: EOS count %d, decoded %d rows", ErrScanTruncated, want, fr.rows)
		}
		return nil, true, nil
	}
	return payload, false, nil
}
