// Package frame is the one binary codec under every byte the system
// persists or ships: the WAL file (RDFWAL01), which /repl/wal also serves
// as a file suffix, and the store snapshot (RDFSNAP2). It owns
//
//	header  := magic (8 bytes) | generation (8 bytes LE)
//	record  := len (4 bytes LE) | crc32c(payload) (4 bytes LE) | payload
//	sealed  := magic (8 bytes) | body | crc32c(body) (4 bytes LE)
//	term    := kind (1 byte) | len value | len datatype | len lang
//
// with uvarint lengths and counts, plus a bounds-checked Cursor that
// decodes payloads and bodies. Every failure it reports wraps ErrTorn.
// See docs/DURABILITY.md for the file layouts built on it.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"rdfshapes/internal/rdf"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C (Castagnoli) of p.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// ErrTorn marks bytes that stop being valid: a short or foreign header, a
// record cut short, a checksum mismatch, or contents that do not decode.
// Everything before the tear is intact. Test with errors.Is.
var ErrTorn = errors.New("frame: torn or corrupt data")

func tear(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrTorn, fmt.Sprintf(format, args...))
}

// HeaderLen is the size of a file header.
const HeaderLen = 16

// AppendHeader appends the header magic | gen; magic must be 8 bytes.
func AppendHeader(buf []byte, magic string, gen uint64) []byte {
	return binary.LittleEndian.AppendUint64(append(buf, magic...), gen)
}

// ParseHeader checks that data opens with magic and returns the header's
// generation.
func ParseHeader(data []byte, magic string) (uint64, error) {
	if len(data) < HeaderLen {
		return 0, tear("header cut at %d bytes", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return 0, tear("bad magic %q", data[:len(magic)])
	}
	return binary.LittleEndian.Uint64(data[len(magic):HeaderLen]), nil
}

// FrameLen is the size of a record's length and checksum prefix.
const FrameLen = 8

// maxRecord bounds one record's claimed payload length.
const maxRecord = 1 << 30

// AppendRecord appends payload as one framed record.
func AppendRecord(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, Checksum(payload))
	return append(buf, payload...)
}

// Scan walks the framed records at the start of data, calling fn with
// each payload whose checksum verifies. It returns the length of the
// valid prefix and nil when data ends on a record boundary, or the valid
// prefix and an ErrTorn tear naming what stopped it. An error from fn
// stops the scan before that record and is returned as is.
func Scan(data []byte, fn func(payload []byte) error) (int, error) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < FrameLen {
			return off, tear("record prefix cut at offset %d", off)
		}
		n := binary.LittleEndian.Uint32(rest)
		if n == 0 || n > maxRecord {
			return off, tear("implausible record length %d at offset %d", n, off)
		}
		if uint64(len(rest)-FrameLen) < uint64(n) {
			return off, tear("record payload cut at offset %d", off)
		}
		payload := rest[FrameLen : FrameLen+int(n)]
		if Checksum(payload) != binary.LittleEndian.Uint32(rest[4:]) {
			return off, tear("checksum mismatch at offset %d", off)
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += FrameLen + int(n)
	}
	return off, nil
}

// AppendTerm appends the encoding of t.
func AppendTerm(buf []byte, t rdf.Term) []byte {
	buf = append(buf, byte(t.Kind))
	for _, s := range [3]string{t.Value, t.Datatype, t.Lang} {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// MinTermLen is the shortest term encoding: a kind and three empty
// strings.
const MinTermLen = 4

// sealChunk is how much body a Sealer buffers before writing it out.
const sealChunk = 64 << 10

// Sealer streams a sealed file, magic | body | crc32c(body), to a
// writer. The body is encoded through Uvarint and Term into a bounded
// buffer that is checksummed and written out as it fills, so a large
// body is never held whole. The first write error sticks and is returned
// by Close.
type Sealer struct {
	w     io.Writer
	buf   []byte
	start int // where the checksummed bytes of buf begin
	crc   uint32
	err   error
}

// NewSealer starts a sealed file with magic.
func NewSealer(w io.Writer, magic string) *Sealer {
	buf := make([]byte, 0, sealChunk+binary.MaxVarintLen64)
	return &Sealer{w: w, buf: append(buf, magic...), start: len(magic)}
}

// Uvarint appends v to the body.
func (s *Sealer) Uvarint(v uint64) { s.fill(binary.AppendUvarint(s.buf, v)) }

// Term appends t to the body.
func (s *Sealer) Term(t rdf.Term) { s.fill(AppendTerm(s.buf, t)) }

// Close writes the rest of the body and its checksum.
func (s *Sealer) Close() error {
	s.flush(true)
	return s.err
}

func (s *Sealer) fill(buf []byte) {
	s.buf = buf
	if len(buf) >= sealChunk {
		s.flush(false)
	}
}

// flush checksums the buffered body and writes it out, followed by the
// checksum when last.
func (s *Sealer) flush(last bool) {
	s.crc = crc32.Update(s.crc, castagnoli, s.buf[s.start:])
	if last {
		s.buf = binary.LittleEndian.AppendUint32(s.buf, s.crc)
	}
	if s.err == nil {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf, s.start = s.buf[:0], 0
}

// Unseal checks a sealed file's magic and checksum and returns its body.
func Unseal(data []byte, magic string) ([]byte, error) {
	if len(data) < len(magic)+4 {
		return nil, tear("sealed file cut at %d bytes", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, tear("bad magic %q", data[:len(magic)])
	}
	body, sum := data[len(magic):len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := Checksum(body); got != sum {
		return nil, tear("checksum mismatch (stored %08x, computed %08x)", sum, got)
	}
	return body, nil
}

// Cursor decodes a record payload or a sealed body. The first failure
// sticks: later reads return zero values, and Err reports it. No count
// or length a Cursor returns exceeds what its remaining bytes could
// encode, so bytes claiming more than they hold make the decoder
// allocate nothing for the claim.
type Cursor struct {
	data []byte
	off  int
	err  error
}

// NewCursor returns a Cursor at the start of data.
func NewCursor(data []byte) *Cursor { return &Cursor{data: data} }

// fail records the first failure and moves to the end, so every later
// read fails too.
func (c *Cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = tear(format, args...)
	}
	c.off = len(c.data)
}

// Err returns the first decode failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Done returns Err, or a tear when bytes remain unread.
func (c *Cursor) Done() error {
	if c.err == nil && c.off != len(c.data) {
		c.fail("%d trailing bytes", len(c.data)-c.off)
	}
	return c.err
}

// Uvarint reads one uvarint.
func (c *Cursor) Uvarint() uint64 {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		c.fail("bad uvarint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// Count reads a uvarint count of items that each encode in at least
// minLen bytes, failing when the remaining bytes cannot hold them.
func (c *Cursor) Count(minLen int) int {
	n := c.Uvarint()
	if left := len(c.data) - c.off; n > uint64(left/minLen) {
		c.fail("count %d exceeds what %d bytes can hold", n, left)
		return 0
	}
	return int(n)
}

// Str reads one length-prefixed string.
func (c *Cursor) Str() string {
	n := c.Count(1)
	s := string(c.data[c.off : c.off+n])
	c.off += n
	return s
}

// Term reads one term.
func (c *Cursor) Term() rdf.Term {
	if c.off >= len(c.data) {
		c.fail("term cut at offset %d", c.off)
		return rdf.Term{}
	}
	kind := rdf.TermKind(c.data[c.off])
	if kind > rdf.Blank {
		c.fail("invalid term kind %d at offset %d", kind, c.off)
		return rdf.Term{}
	}
	c.off++
	return rdf.Term{Kind: kind, Value: c.Str(), Datatype: c.Str(), Lang: c.Str()}
}
