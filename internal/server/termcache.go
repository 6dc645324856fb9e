package server

import (
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"

	"rdfshapes/internal/store"
)

// termPageBytes is the size of one arena page. A fragment longer than a
// page gets a page of its own.
const termPageBytes = 64 << 10

// termSlabLen is how many fragment headers one slab holds: the index
// points into slabs, so a fill allocates no object of its own.
const termSlabLen = 1024

// termCache holds the SPARQL-JSON object — {"type":…,"value":…} — of
// every term of one dictionary that a response has shown, so each is
// encoded once per process and copied into every cell after that. The
// dictionary is append-only, so an ID's object never changes.
//
// The layout is CSR-like: fragment bytes live in fixed-size arena pages
// that are never moved, and an index by ID locates each one. A hit is
// one atomic load of an index entry and takes no lock, neither the
// cache's nor the dictionary's. A miss takes mu, encodes the term with
// encoding/json and publishes it; an ID past the index (a term interned
// after the index was sized) grows the index geometrically first. The
// cache is bounded by one fragment per dictionary ID.
type termCache struct {
	dict  *store.Dict
	index atomic.Pointer[[]atomic.Pointer[[]byte]]

	mu     sync.Mutex // serialises fills and index growth
	page   []byte     // arena page being filled, appended to within its capacity only
	slab   [][]byte   // fragment headers the index entries point at
	encBuf bytes.Buffer
	enc    *json.Encoder

	terms, bytes atomic.Int64 // fragments held and their summed length, for /metrics
}

func newTermCache(d *store.Dict) *termCache {
	c := &termCache{dict: d}
	index := make([]atomic.Pointer[[]byte], d.Len()+1)
	c.index.Store(&index)
	c.enc = json.NewEncoder(&c.encBuf)
	c.enc.SetEscapeHTML(false)
	return c
}

// table returns the index as it stands. A caller may keep it for a
// whole response: an entry it lacks — filled later, or past its end — is
// a miss, and fill returns the index current after that.
func (c *termCache) table() []atomic.Pointer[[]byte] { return *c.index.Load() }

// fill returns id's fragment, encoding and publishing it unless another
// response already has, together with the index as it stands afterwards.
func (c *termCache) fill(id store.ID) ([]byte, []atomic.Pointer[[]byte]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	index := *c.index.Load()
	if int(id) >= len(index) {
		grown := make([]atomic.Pointer[[]byte], max(2*len(index), int(id)+1))
		for i := range index {
			grown[i].Store(index[i].Load())
		}
		c.index.Store(&grown)
		index = grown
	}
	if p := index[id].Load(); p != nil {
		return *p, index
	}

	// What it writes cannot fail (a string into a buffer); Encode ends
	// in a newline the fragment leaves out.
	c.encBuf.Reset()
	_ = c.enc.Encode(toJSONTerm(c.dict.Term(id)))
	n := c.encBuf.Len() - 1
	if cap(c.page)-len(c.page) < n {
		c.page = make([]byte, 0, max(termPageBytes, n))
	}
	start := len(c.page)
	c.page = append(c.page, c.encBuf.Bytes()[:n]...)
	frag := c.page[start:len(c.page):len(c.page)]

	if len(c.slab) == cap(c.slab) {
		c.slab = make([][]byte, 0, termSlabLen)
	}
	c.slab = append(c.slab, frag)
	index[id].Store(&c.slab[len(c.slab)-1])
	c.terms.Add(1)
	c.bytes.Add(int64(n))
	return frag, index
}
