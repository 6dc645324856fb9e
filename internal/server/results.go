package server

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"rdfshapes"
	"rdfshapes/internal/rdf"
)

// jsonTerm is one RDF term in SPARQL 1.1 JSON results form.
type jsonTerm struct {
	Type     string `json:"type"` // uri | literal | bnode
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

func toJSONTerm(t rdf.Term) jsonTerm {
	switch t.Kind {
	case rdf.IRI:
		return jsonTerm{Type: "uri", Value: t.Value}
	case rdf.Blank:
		return jsonTerm{Type: "bnode", Value: t.Value}
	default:
		jt := jsonTerm{Type: "literal", Value: t.Value, Lang: t.Lang}
		if t.Lang == "" && t.Datatype != "" && t.Datatype != rdf.XSDString {
			jt.Datatype = t.Datatype
		}
		return jt
	}
}

// chunkBytes is how much of a response body is gathered before it is
// handed to the connection: large enough that a 5 MB answer is ~80
// writes, small enough that a vanished client is noticed after one.
const chunkBytes = 64 << 10

// chunkPool recycles body buffers across responses. A buffer that a huge
// single row grew far past chunkBytes is dropped instead of pinned.
var chunkPool = sync.Pool{New: func() any {
	buf := make([]byte, 0, chunkBytes+chunkBytes/8)
	return &buf
}}

// writeBindings writes b to w as a SPARQL 1.1 Query Results JSON
// document, straight from its ID rows: each term's {"type":…,"value":…}
// object is copied from terms, which encodes it the first time any
// response shows it, a row's variables go out in sorted name order with
// unbound ones omitted, and the body leaves in chunks of about
// chunkBytes. terms belongs to b's dictionary; it is nil when b has none
// (a COUNT), whose one term is encoded here. It returns the first error
// of w.Write, having stopped encoding there.
func writeBindings(w io.Writer, b *rdfshapes.Bindings, terms *termCache) error {
	bufp := chunkPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	defer func() {
		if cap(buf) <= 2*chunkBytes {
			*bufp = buf[:0]
			chunkPool.Put(bufp)
		}
	}()

	if b.Ask {
		buf = append(buf, `{"head":{"vars":null},"boolean":`...)
		if len(b.Rows) > 0 {
			buf = append(buf, "true}\n"...)
		} else {
			buf = append(buf, "false}\n"...)
		}
		_, err := w.Write(buf)
		return err
	}

	// Everything else encoding/json is asked for — the variable list, the
	// member names, a COUNT's term — goes into frags; what it writes
	// cannot fail (strings into a buffer), and each Encode ends in a
	// newline the spans leave out.
	var frags bytes.Buffer
	enc := json.NewEncoder(&frags)
	enc.SetEscapeHTML(false)
	type span struct{ off, end int }
	encode := func(v any) span {
		off := frags.Len()
		_ = enc.Encode(v)
		return span{off, frags.Len() - 1}
	}

	// Member names in the order encoding/json gives a map's keys; a
	// variable projected twice is one member.
	type member struct {
		name string
		col  int
		key  span // "name":
	}
	members := make([]member, 0, len(b.Vars))
	for i, v := range b.Vars {
		members = append(members, member{name: v, col: b.Cols[i]})
	}
	sort.Slice(members, func(i, j int) bool { return members[i].name < members[j].name })
	uniq := members[:0]
	for _, m := range members {
		if len(uniq) == 0 || uniq[len(uniq)-1].name != m.name {
			m.key = encode(m.name)
			uniq = append(uniq, m)
		}
	}
	members = uniq

	buf = append(buf, `{"head":{"vars":`...)
	vars := encode(b.Vars)
	buf = append(buf, frags.Bytes()[vars.off:vars.end]...)
	buf = append(buf, `},"results":{"bindings":[`...)

	var index []atomic.Pointer[[]byte]
	if terms != nil {
		index = terms.table()
	}
	for r, row := range b.Rows {
		if r > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '{')
		first := true
		for _, m := range members {
			id := row[m.col]
			if id == 0 {
				continue // unbound OPTIONAL variable: omitted per spec
			}
			if !first {
				buf = append(buf, ',')
			}
			first = false
			all := frags.Bytes()
			buf = append(buf, all[m.key.off:m.key.end]...)
			buf = append(buf, ':')
			var hit *[]byte
			if int(id) < len(index) {
				hit = index[id].Load()
			}
			switch {
			case hit != nil:
				buf = append(buf, *hit...)
			case terms != nil:
				var frag []byte
				frag, index = terms.fill(id)
				buf = append(buf, frag...)
			default:
				t := encode(toJSONTerm(b.Term(id)))
				buf = append(buf, frags.Bytes()[t.off:t.end]...)
			}
		}
		buf = append(buf, '}')
		if len(buf) >= chunkBytes {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}

	buf = append(buf, "]}"...)
	if b.Truncated {
		buf = append(buf, `,"truncated":true`...)
	}
	buf = append(buf, "}\n"...)
	_, err := w.Write(buf)
	return err
}
