package store

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sync"

	"rdfshapes/internal/rdf"
)

// ErrFrozen is returned by TryAdd/TryAddID when the store has already been
// frozen and can no longer accept triples.
var ErrFrozen = errors.New("store: Add after Freeze")

// IDTriple is a dictionary-encoded triple.
type IDTriple struct {
	S, P, O ID
}

// Store is an immutable-after-Freeze indexed triple store. Build one with
// New, Add/AddGraph triples, then call Freeze before querying. Load is a
// convenience wrapper doing all three.
type Store struct {
	dict   *Dict
	staged []IDTriple

	frozen bool
	indexes

	// Run offsets, built by Freeze. IDs are dense, so the rows led by ID
	// v are found with two loads instead of a search over the whole
	// index: spo[subjOff[v]:subjOff[v+1]] holds subject v's triples,
	// osp[objOff[v]:objOff[v+1]] object v's, and predOff serves both
	// pso and pos (a predicate's run has the same bounds in either).
	// Each table ends two past the largest ID its own triples use; see
	// runOf for IDs beyond it.
	subjOff, predOff, objOff []uint32

	typeID ID // ID of rdf:type, 0 if absent from the data
}

// indexes is one triple set in the four stored sort orders.
type indexes struct {
	spo []IDTriple // sorted (S,P,O)
	pso []IDTriple // sorted (P,S,O)
	pos []IDTriple // sorted (P,O,S)
	osp []IDTriple // sorted (O,S,P)
}

// New returns an empty store ready for Add calls.
func New() *Store {
	return &Store{dict: NewDict()}
}

// NewWithDict returns an empty store that interns into an existing
// dictionary instead of a fresh one. The live layer uses it to rebuild a
// compacted base without re-interning: IDs are append-only, so triples
// encoded against d stay valid in the new store.
func NewWithDict(d *Dict) *Store {
	return &Store{dict: d}
}

// Load builds a frozen store from a graph in one call.
func Load(g rdf.Graph) *Store {
	s := New()
	s.AddGraph(g)
	s.Freeze()
	return s
}

// Dict exposes the term dictionary.
func (s *Store) Dict() *Dict { return s.dict }

// Add stages one triple. It panics if the store is already frozen, which
// indicates a programming error in bulk-load code: the store is immutable
// after Freeze. Callers that can legitimately race a freeze (the live
// layer's compactor) use TryAdd instead.
func (s *Store) Add(t rdf.Triple) {
	if err := s.TryAdd(t); err != nil {
		panic(err.Error())
	}
}

// TryAdd stages one triple, returning ErrFrozen instead of panicking if
// the store is already frozen.
func (s *Store) TryAdd(t rdf.Triple) error {
	if s.frozen {
		return ErrFrozen
	}
	s.staged = append(s.staged, IDTriple{
		S: s.dict.Intern(t.S),
		P: s.dict.Intern(t.P),
		O: s.dict.Intern(t.O),
	})
	return nil
}

// TryAddID stages one already-encoded triple. The IDs must come from this
// store's dictionary (see NewWithDict). Returns ErrFrozen after Freeze.
func (s *Store) TryAddID(t IDTriple) error {
	if s.frozen {
		return ErrFrozen
	}
	s.staged = append(s.staged, t)
	return nil
}

// AddGraph stages every triple of g.
func (s *Store) AddGraph(g rdf.Graph) {
	for _, t := range g {
		s.Add(t)
	}
}

// Freeze deduplicates staged triples, builds the four sorted indexes —
// sorting the three secondary orderings in parallel — and the run offset
// tables over them. Calling Freeze twice is a no-op.
func (s *Store) Freeze() {
	if s.frozen {
		return
	}
	s.frozen = true
	ts := s.staged
	s.staged = nil
	sortTriples(ts, ordSPO)
	ts = dedupe(ts)
	if uint64(len(ts)) > math.MaxUint32 {
		panic("store: more triples than a uint32 run offset can address")
	}
	s.spo = ts

	var wg sync.WaitGroup
	for _, o := range []order{ordPSO, ordPOS, ordOSP} {
		idx := append([]IDTriple(nil), ts...)
		*s.by(o) = idx
		wg.Add(1)
		go func() {
			defer wg.Done()
			sortTriples(idx, o)
		}()
	}
	s.subjOff = runOffsets(s.spo, LeadS)
	wg.Wait()
	s.predOff = runOffsets(s.pso, LeadP)
	s.objOff = runOffsets(s.osp, LeadO)

	if id, ok := s.dict.Lookup(rdf.NewIRI(rdf.RDFType)); ok {
		s.typeID = id
	}
}

// runOffsets builds the offset table of idx over its leading key
// component (position lead): rows led by ID v are idx[off[v]:off[v+1]].
// The table ends at the largest leading ID + 1, so it has that ID + 2
// entries; an empty index has no table.
func runOffsets(idx []IDTriple, lead int) []uint32 {
	if len(idx) == 0 {
		return nil
	}
	off := make([]uint32, int(LeadKey(idx[len(idx)-1], lead))+2)
	next := 0
	for i, t := range idx {
		for k := int(LeadKey(t, lead)); next <= k; next++ {
			off[next] = uint32(i)
		}
	}
	off[next] = uint32(len(idx))
	return off
}

// runOf returns the half-open row range led by ID v. An ID past the
// table — a term interned by a later update, or one only another shard's
// triples use — leads no rows here.
func runOf(off []uint32, v ID) (lo, hi int) {
	if uint64(v)+1 >= uint64(len(off)) {
		return 0, 0
	}
	return int(off[v]), int(off[v+1])
}

// Len returns the number of distinct triples. Valid only after Freeze.
func (s *Store) Len() int {
	s.mustBeFrozen()
	return len(s.spo)
}

// TypeID returns the dictionary ID of rdf:type, or 0 if the data contains
// no rdf:type triples.
func (s *Store) TypeID() ID {
	s.mustBeFrozen()
	return s.typeID
}

func (s *Store) mustBeFrozen() {
	if !s.frozen {
		panic("store: query before Freeze")
	}
}

func dedupe(ts []IDTriple) []IDTriple {
	if len(ts) == 0 {
		return ts
	}
	out := ts[:1]
	for _, t := range ts[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// order names one of the four stored sort orders.
type order uint8

const (
	ordSPO order = iota
	ordPSO
	ordPOS
	ordOSP
)

// orderKey is each order's key as triple positions, most significant
// first; orderLess its strict full-key comparison.
var (
	orderKey = [...][3]int{
		ordSPO: {LeadS, LeadP, LeadO},
		ordPSO: {LeadP, LeadS, LeadO},
		ordPOS: {LeadP, LeadO, LeadS},
		ordOSP: {LeadO, LeadS, LeadP},
	}
	orderLess = [...]cmpFunc{ordSPO: cmpSPO, ordPSO: cmpPSO, ordPOS: cmpPOS, ordOSP: cmpOSP}
)

// by returns the index kept in order o.
func (x *indexes) by(o order) *[]IDTriple {
	switch o {
	case ordPSO:
		return &x.pso
	case ordPOS:
		return &x.pos
	case ordOSP:
		return &x.osp
	default:
		return &x.spo
	}
}

type cmpFunc func(a, b IDTriple) bool

func cmpSPO(a, b IDTriple) bool {
	if a.S != b.S {
		return a.S < b.S
	}
	if a.P != b.P {
		return a.P < b.P
	}
	return a.O < b.O
}

func cmpPSO(a, b IDTriple) bool {
	if a.P != b.P {
		return a.P < b.P
	}
	if a.S != b.S {
		return a.S < b.S
	}
	return a.O < b.O
}

func cmpPOS(a, b IDTriple) bool {
	if a.P != b.P {
		return a.P < b.P
	}
	if a.O != b.O {
		return a.O < b.O
	}
	return a.S < b.S
}

func cmpOSP(a, b IDTriple) bool {
	if a.O != b.O {
		return a.O < b.O
	}
	if a.S != b.S {
		return a.S < b.S
	}
	return a.P < b.P
}

// sortTriples sorts ts into order o. The comparisons are typed and
// three-way, so the sort inlines around them; sort.Slice's reflection
// swapper and less closure cost Freeze about a fifth of its time.
func sortTriples(ts []IDTriple, o order) {
	switch o {
	case ordPSO:
		slices.SortFunc(ts, func(a, b IDTriple) int { return compare3(a.P, b.P, a.S, b.S, a.O, b.O) })
	case ordPOS:
		slices.SortFunc(ts, func(a, b IDTriple) int { return compare3(a.P, b.P, a.O, b.O, a.S, b.S) })
	case ordOSP:
		slices.SortFunc(ts, func(a, b IDTriple) int { return compare3(a.O, b.O, a.S, b.S, a.P, b.P) })
	default:
		slices.SortFunc(ts, func(a, b IDTriple) int { return compare3(a.S, b.S, a.P, b.P, a.O, b.O) })
	}
}

// compare3 compares the key (a1,a2,a3) with (b1,b2,b3).
func compare3(a1, b1, a2, b2, a3, b3 ID) int {
	if a1 != b1 {
		return cmp.Compare(a1, b1)
	}
	if a2 != b2 {
		return cmp.Compare(a2, b2)
	}
	return cmp.Compare(a3, b3)
}
