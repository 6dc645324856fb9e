package store

// Lead-ordered range scans: the capability a sort-merge join consumes.
//
// A merge join over a shared variable v needs every input enumerated with
// v's position as the *leading* sort component, after the pattern's
// constant positions are fixed. Because the store keeps four orderings
// (SPO/PSO/POS/OSP), most (bound-positions, lead) combinations are served
// by a prefix range of one of them — no sorting, no post-filtering:
//
//	lead=S: (? p o)→POS, (? p ?)→PSO, (? ? o)→OSP, (? ? ?)→SPO
//	lead=P: (s ? o)→OSP, (s ? ?)→SPO, (? ? ?)→PSO; (? ? o) unavailable
//	lead=O: (s p ?)→SPO, (? p ?)→POS, (? ? ?)→OSP; (s ? ?) unavailable
//
// The two unavailable shapes would need SOP/OPS orderings the store does
// not keep; LeadOrderAvailable reports them so the optimizer simply keeps
// the nested-loop plan there.

// Lead positions of a lead-ordered scan.
const (
	LeadS = 0
	LeadP = 1
	LeadO = 2
)

// LeadKey returns the component of t at the lead position.
func LeadKey(t IDTriple, lead int) ID {
	switch lead {
	case LeadS:
		return t.S
	case LeadP:
		return t.P
	default:
		return t.O
	}
}

// SortedRun is one key-sorted run of a lead-ordered enumeration: rows in
// the serving index's full key order, with an optional deletion mask
// (rows in Del are hidden from the merged view). Runs returned by one
// LeadRuns call are pairwise disjoint, so merging them by the full key
// comparison (LeadOrder) is deterministic.
type SortedRun struct {
	Rows []IDTriple
	Del  *Fragment
}

// LeadOrderAvailable reports whether matches of pat (nonzero positions
// are bound) can be enumerated with lead as the leading sort component
// using one of the four stored orderings. The lead position itself must
// be unbound.
func LeadOrderAvailable(pat IDTriple, lead int) bool {
	if LeadKey(pat, lead) != 0 {
		return false
	}
	switch lead {
	case LeadS, LeadO:
		// lead=S misses nothing; lead=O only misses (s ? o-lead), i.e.
		// subject bound, predicate free — that would need an SOP index.
		return lead == LeadS || !(pat.S != 0 && pat.P == 0)
	case LeadP:
		// (? ? o) with the predicate leading would need OPS.
		return !(pat.O != 0 && pat.S == 0)
	default:
		return false
	}
}

// leadServing returns the order that enumerates matches of pat with lead
// as the leading unbound component, and how many of its leading key
// components pat binds. ok is false when LeadOrderAvailable(pat, lead) is
// false.
func leadServing(pat IDTriple, lead int) (o order, bound int, ok bool) {
	if !LeadOrderAvailable(pat, lead) {
		return 0, 0, false
	}
	switch lead {
	case LeadS:
		// With S unbound, every shape's serving order has S next.
		o, bound = serving(pat)
		return o, bound, true
	case LeadP:
		switch {
		case pat.S != 0 && pat.O != 0:
			return ordOSP, 2, true
		case pat.S != 0:
			return ordSPO, 1, true
		default:
			return ordPSO, 0, true
		}
	default: // LeadO
		switch {
		case pat.S != 0 && pat.P != 0:
			return ordSPO, 2, true
		case pat.P != 0:
			return ordPOS, 1, true
		default:
			return ordOSP, 0, true
		}
	}
}

// LeadOrder returns the strict total order in which LeadRange(pat, lead)
// enumerates rows — the full three-component key comparison of the
// serving index, with the lead component first among the unbound
// positions. ok is false when the combination is unavailable. Merging
// disjoint sorted runs with this comparator reproduces one globally
// lead-ordered stream.
func LeadOrder(pat IDTriple, lead int) (less func(a, b IDTriple) bool, ok bool) {
	o, _, ok := leadServing(pat, lead)
	if !ok {
		return nil, false
	}
	return orderLess[o], true
}

// LeadRange returns the rows matching pat sorted with lead as the leading
// unbound component, as a subslice of the serving index (shared storage —
// do not modify). ok is false when LeadOrderAvailable(pat, lead) is
// false; an available combination with no matches returns (nil, true).
func (s *Store) LeadRange(pat IDTriple, lead int) (rows []IDTriple, ok bool) {
	s.mustBeFrozen()
	o, bound, ok := leadServing(pat, lead)
	if !ok {
		return nil, false
	}
	idx, lo, hi := s.prefix(o, bound, pat)
	return idx[lo:hi], true
}

// LeadRuns returns the store's matches of pat as a single lead-ordered
// run — the frozen store is one sorted index, so there is nothing to
// merge. It makes *Store satisfy the engine's ordered-source capability
// directly.
func (s *Store) LeadRuns(pat IDTriple, lead int) ([]SortedRun, bool) {
	rows, ok := s.LeadRange(pat, lead)
	if !ok {
		return nil, false
	}
	if len(rows) == 0 {
		return nil, true
	}
	return []SortedRun{{Rows: rows}}, true
}

// LeadRange is the fragment counterpart of Store.LeadRange; a nil
// receiver is the empty fragment and reports every available combination
// as an empty range.
func (f *Fragment) LeadRange(pat IDTriple, lead int) (rows []IDTriple, ok bool) {
	o, bound, ok := leadServing(pat, lead)
	if f == nil || !ok {
		return nil, ok
	}
	idx, lo, hi := f.prefix(o, bound, pat)
	return idx[lo:hi], true
}
