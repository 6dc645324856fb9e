package main

import (
	"bytes"
	"errors"
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// digest summarises one query answer independently of row order: the
// row count and the sum of per-row hashes. Two answers with the same
// multiset of bindings have the same digest whatever join order,
// executor or encoder produced them.
type digest struct {
	Rows int
	Sum  uint64
	// Boolean is the ASK answer: -1 when the response carried none.
	Boolean   int8
	Truncated bool
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashField folds one field into h with a separator, so ("ab","c") and
// ("a","bc") differ.
func hashField(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime
}

// termHash hashes one binding var → term in SPARQL 1.1 JSON results
// form (type, value, xml:lang, datatype).
func termHash(v, typ, value, lang, datatype []byte) uint64 {
	h := hashField(fnvOffset, v)
	h = hashField(h, typ)
	h = hashField(h, value)
	h = hashField(h, lang)
	return hashField(h, datatype)
}

// rowHash finishes the commutative sum of a row's term hashes, so that
// swapping a term between two rows changes the digest.
func rowHash(sum uint64) uint64 {
	sum ^= sum >> 32
	sum *= 0x9e3779b97f4a7c15
	return sum ^ sum>>29
}

// digestResponse digests an application/sparql-results+json body. It
// reads the document structure rather than its bytes, so key order,
// whitespace and string escaping are free to change.
func digestResponse(body []byte) (digest, error) {
	s := scanner{b: body}
	d := digest{Boolean: -1}
	err := s.object(func(key []byte) error {
		switch string(key) {
		case "results":
			return s.object(func(key []byte) error {
				if string(key) != "bindings" {
					return s.skip()
				}
				return s.array(func() error {
					var sum uint64
					err := s.object(func(v []byte) error {
						var typ, value, lang, datatype []byte
						err := s.object(func(key []byte) error {
							val, err := s.str()
							if err != nil {
								return err
							}
							switch string(key) {
							case "type":
								typ = val
							case "value":
								value = val
							case "xml:lang":
								lang = val
							case "datatype":
								datatype = val
							}
							return nil
						})
						sum += termHash(v, typ, value, lang, datatype)
						return err
					})
					d.Rows++
					d.Sum += rowHash(sum)
					return err
				})
			})
		case "boolean":
			b, err := s.boolean()
			d.Boolean = 0
			if b {
				d.Boolean = 1
			}
			return err
		case "truncated":
			b, err := s.boolean()
			d.Truncated = b
			return err
		}
		return s.skip()
	})
	if err != nil {
		return d, fmt.Errorf("response body at byte %d: %w", s.i, err)
	}
	return d, nil
}

// scanner is a minimal JSON reader over a byte slice. Strings are
// located quote to quote with bytes.IndexByte, which keeps a 10 MB
// answer to a few milliseconds of client CPU — on two shared cores a
// heavier check would slow the server it is checking.
type scanner struct {
	b []byte
	i int
}

var errJSON = errors.New("malformed JSON")

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object calls field for each key with the scanner positioned at the
// key's value; field must consume the value.
func (s *scanner) object(field func(key []byte) error) error {
	if !s.eat('{') {
		return errJSON
	}
	if s.eat('}') {
		return nil
	}
	for {
		key, err := s.str()
		if err != nil {
			return err
		}
		if !s.eat(':') {
			return errJSON
		}
		if err := field(key); err != nil {
			return err
		}
		if s.eat(',') {
			continue
		}
		if s.eat('}') {
			return nil
		}
		return errJSON
	}
}

func (s *scanner) array(elem func() error) error {
	if !s.eat('[') {
		return errJSON
	}
	if s.eat(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if s.eat(',') {
			continue
		}
		if s.eat(']') {
			return nil
		}
		return errJSON
	}
}

// str reads a string and returns its unescaped content; without
// escapes the result aliases the input.
func (s *scanner) str() ([]byte, error) {
	if !s.eat('"') {
		return nil, errJSON
	}
	start := s.i
	escaped := false
	for {
		j := bytes.IndexByte(s.b[s.i:], '"')
		if j < 0 {
			return nil, errJSON
		}
		end := s.i + j
		// A quote preceded by an odd run of backslashes is escaped.
		k := end
		for k > start && s.b[k-1] == '\\' {
			k--
		}
		s.i = end + 1
		if (end-k)%2 == 1 {
			escaped = true
			continue
		}
		raw := s.b[start:end]
		if !escaped && bytes.IndexByte(raw, '\\') < 0 {
			return raw, nil
		}
		return unescape(raw)
	}
}

func unescape(raw []byte) ([]byte, error) {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		i++
		if i >= len(raw) {
			return nil, errJSON
		}
		switch raw[i] {
		case '"', '\\', '/':
			out = append(out, raw[i])
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r, n := hex4(raw[i+1:])
			if n == 0 {
				return nil, errJSON
			}
			i += 4
			if utf16.IsSurrogate(r) && i+2 < len(raw) && raw[i+1] == '\\' && raw[i+2] == 'u' {
				if r2, n2 := hex4(raw[i+3:]); n2 != 0 {
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						r = dec
						i += 6
					}
				}
			}
			out = utf8.AppendRune(out, r)
		default:
			return nil, errJSON
		}
	}
	return out, nil
}

func hex4(b []byte) (rune, int) {
	if len(b) < 4 {
		return 0, 0
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, 0
		}
	}
	return r, 4
}

func (s *scanner) boolean() (bool, error) {
	s.ws()
	switch {
	case bytes.HasPrefix(s.b[s.i:], []byte("true")):
		s.i += 4
		return true, nil
	case bytes.HasPrefix(s.b[s.i:], []byte("false")):
		s.i += 5
		return false, nil
	}
	return false, errJSON
}

// skip consumes one value of any type.
func (s *scanner) skip() error {
	s.ws()
	if s.i >= len(s.b) {
		return errJSON
	}
	switch s.b[s.i] {
	case '{':
		return s.object(func([]byte) error { return s.skip() })
	case '[':
		return s.array(s.skip)
	case '"':
		_, err := s.str()
		return err
	}
	// number, true, false or null: runs to the next delimiter
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			return nil
		}
		s.i++
	}
	return nil
}
