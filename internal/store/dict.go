// Package store implements an in-memory, dictionary-encoded RDF triple
// store with sorted SPO, PSO, POS, and OSP indexes. It plays the role that
// Jena TDB plays in the paper: the storage and access-path substrate over
// which query plans are executed.
//
// Terms are interned into dense uint32 IDs; triples are stored as ID
// triples in four sort orders so that every triple-pattern shape is a key
// prefix of one of them. Because IDs are dense, a frozen store also keeps
// an offset table per leading component (subject, predicate, object):
// the rows led by an ID are found by direct addressing, and further bound
// components by a search inside that run — an index probe costs O(1)
// plus a search of one short run (scan.go).
package store

import (
	"fmt"
	"sync"

	"rdfshapes/internal/rdf"
)

// ID is a dictionary-encoded term identifier. 0 is reserved and never
// identifies a term; pattern positions use 0 as the wildcard.
type ID uint32

// Wildcard is the ID value that matches any term in Scan/Count patterns.
const Wildcard ID = 0

// Dict interns RDF terms into dense IDs starting at 1. It is safe for
// concurrent use; IDs are append-only, so an ID handed out once stays
// valid forever even while writers intern new terms.
type Dict struct {
	mu    sync.RWMutex
	ids   map[rdf.Term]ID
	terms []rdf.Term // terms[0] is a placeholder for the reserved ID 0
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{
		ids:   make(map[rdf.Term]ID),
		terms: make([]rdf.Term, 1),
	}
}

// Intern returns the ID for t, assigning a fresh one on first sight.
func (d *Dict) Intern(t rdf.Term) ID {
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[t]; ok {
		return id
	}
	id = ID(len(d.terms))
	d.ids[t] = id
	d.terms = append(d.terms, t)
	return id
}

// Lookup returns the ID for t, or (0, false) if t was never interned.
func (d *Dict) Lookup(t rdf.Term) (ID, bool) {
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	return id, ok
}

// Term returns the term for a valid ID. It panics on the reserved ID 0 or
// an out-of-range ID, which always indicates a programming error.
func (d *Dict) Term(id ID) rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id == 0 || int(id) >= len(d.terms) {
		panic(fmt.Sprintf("store: invalid term ID %d (dictionary size %d)", id, len(d.terms)-1))
	}
	return d.terms[id]
}

// Len returns the number of interned terms.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms) - 1
}
