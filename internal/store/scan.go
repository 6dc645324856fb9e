package store

// Every combination of bound positions is a key prefix of one of the
// four indexes, so Scan never post-filters:
//
//	(s p o) → SPO, (s p ?) → SPO, (s ? o) → OSP, (s ? ?) → SPO,
//	(? p o) → POS, (? p ?) → PSO, (? ? o) → OSP, (? ? ?) → SPO.
//
// In a frozen store the leading bound component is resolved through the
// run offset table — two loads — and the remaining bound components are
// searched for inside that run only (a subject's handful of triples, not
// the whole index): a probe costs O(1) plus a search of one short run.
// Count is the same range, measured instead of walked. A Fragment has no
// offset table and searches its (small) index for the leading component
// too.

// serving returns the order whose key prefix pat's bound positions form,
// and the length of that prefix.
func serving(pat IDTriple) (o order, bound int) {
	switch {
	case pat.S != 0 && pat.P != 0 && pat.O != 0:
		return ordSPO, 3
	case pat.S != 0 && pat.P != 0:
		return ordSPO, 2
	case pat.S != 0 && pat.O != 0:
		return ordOSP, 2
	case pat.S != 0:
		return ordSPO, 1
	case pat.P != 0 && pat.O != 0:
		return ordPOS, 2
	case pat.P != 0:
		return ordPSO, 1
	case pat.O != 0:
		return ordOSP, 1
	default:
		return ordSPO, 0
	}
}

// Scan calls fn for every triple matching the pattern, where Wildcard (0)
// in a position matches anything. fn returning false stops the scan early.
func (s *Store) Scan(pat IDTriple, fn func(IDTriple) bool) {
	s.mustBeFrozen()
	idx, lo, hi := s.match(pat)
	for _, t := range idx[lo:hi] {
		if !fn(t) {
			return
		}
	}
}

// ScanChunks splits the rows matching pat into at most n contiguous
// chunks of near-equal size and returns one scan closure per chunk.
// Running the closures in slice order enumerates exactly the triples
// Scan(pat) would, in the same order — the contract morsel-parallel
// execution relies on for deterministic merges. An empty match returns
// nil.
func (s *Store) ScanChunks(pat IDTriple, n int) []func(fn func(IDTriple) bool) {
	s.mustBeFrozen()
	idx, lo, hi := s.match(pat)
	return chunkRange(idx, lo, hi, n)
}

// chunkRange splits idx[lo:hi] into at most n contiguous scan closures.
func chunkRange(idx []IDTriple, lo, hi, n int) []func(fn func(IDTriple) bool) {
	total := hi - lo
	if total == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	chunks := make([]func(fn func(IDTriple) bool), n)
	for i := 0; i < n; i++ {
		rows := idx[lo+total*i/n : lo+total*(i+1)/n]
		chunks[i] = func(fn func(IDTriple) bool) {
			for _, t := range rows {
				if !fn(t) {
					return
				}
			}
		}
	}
	return chunks
}

// Range returns the rows matching pat as a subslice of the serving
// index: sorted by that index's key order (KeyOrder(pat)) and shared
// with the store, so callers must not modify it. The shard coordinator
// merges per-shard ranges into one globally key-ordered stream.
func (s *Store) Range(pat IDTriple) []IDTriple {
	s.mustBeFrozen()
	idx, lo, hi := s.match(pat)
	return idx[lo:hi]
}

// Count returns the number of triples matching the pattern in O(log n).
func (s *Store) Count(pat IDTriple) int {
	s.mustBeFrozen()
	_, lo, hi := s.match(pat)
	return hi - lo
}

// Contains reports whether the fully bound triple is in the store.
func (s *Store) Contains(t IDTriple) bool {
	return s.Count(t) > 0
}

// match selects the serving index and the half-open row range for pat.
func (s *Store) match(pat IDTriple) (idx []IDTriple, lo, hi int) {
	o, bound := serving(pat)
	return s.prefix(o, bound, pat)
}

// prefix returns order o's index and the half-open range of its rows
// equal to pat on the first bound key components: the leading one through
// the run offset table, the rest by search inside that run.
func (s *Store) prefix(o order, bound int, pat IDTriple) (idx []IDTriple, lo, hi int) {
	idx = *s.by(o)
	if bound == 0 {
		return idx, 0, len(idx)
	}
	key := orderKey[o]
	lo, hi = runOf(s.offsets(o), LeadKey(pat, key[0]))
	lo, hi = rangeOf(idx, lo, hi, key, pat, 1, bound)
	return idx, lo, hi
}

// offsets returns the run offset table over order o's leading component.
func (s *Store) offsets(o order) []uint32 {
	switch o {
	case ordSPO:
		return s.subjOff
	case ordOSP:
		return s.objOff
	default:
		return s.predOff
	}
}

// match is Store.match for a Fragment.
func (f *Fragment) match(pat IDTriple) (idx []IDTriple, lo, hi int) {
	o, bound := serving(pat)
	return f.prefix(o, bound, pat)
}

// prefix is Store.prefix without offset tables: every bound component is
// searched for, the leading one over the whole index.
func (f *Fragment) prefix(o order, bound int, pat IDTriple) (idx []IDTriple, lo, hi int) {
	idx = *f.by(o)
	lo, hi = rangeOf(idx, 0, len(idx), orderKey[o], pat, 0, bound)
	return idx, lo, hi
}

// KeyOrder returns the strict total order in which Scan(pat) and
// Range(pat) enumerate matching triples: the full three-component key
// comparison of the index that serves pat (the table above). Because a
// key is a permutation of the whole triple, distinct triples never
// compare equal — which is what makes cross-shard merges deterministic.
func KeyOrder(pat IDTriple) func(a, b IDTriple) bool {
	o, _ := serving(pat)
	return orderLess[o]
}

// rangeOf narrows idx[lo:hi] — rows that agree on key components before
// from, sorted by the rest — to the rows equal to pat on key components
// from..to-1.
func rangeOf(idx []IDTriple, lo, hi int, key [3]int, pat IDTriple, from, to int) (int, int) {
	for k := from; k < to && lo < hi; k++ {
		lo, hi = equalRun(idx, lo, hi, key[k], LeadKey(pat, key[k]))
	}
	return lo, hi
}

// equalRun returns the rows of idx[lo:hi], sorted by the component at
// position c, whose component equals v: a lower bound, then a gallop to
// the upper bound — the run is usually far shorter than the range, so
// doubling steps from its start beat a second search of the whole range.
func equalRun(idx []IDTriple, lo, hi, c int, v ID) (int, int) {
	for j := hi; lo < j; {
		if m := int(uint(lo+j) >> 1); LeadKey(idx[m], c) < v {
			lo = m + 1
		} else {
			j = m
		}
	}
	if lo == hi || LeadKey(idx[lo], c) != v {
		return lo, lo
	}
	end, step := lo, 1 // idx[end] is in the run
	for end+step < hi && LeadKey(idx[end+step], c) == v {
		end += step
		step <<= 1
	}
	hi = min(end+step, hi)
	for end++; end < hi; {
		if m := int(uint(end+hi) >> 1); LeadKey(idx[m], c) == v {
			end = m + 1
		} else {
			hi = m
		}
	}
	return lo, end
}

// DistinctSubjects returns the number of distinct subjects among triples
// with predicate p (Wildcard means "over the whole graph").
func (s *Store) DistinctSubjects(p ID) int {
	s.mustBeFrozen()
	if p == Wildcard {
		return nonEmptyRuns(s.subjOff)
	}
	lo, hi := runOf(s.predOff, p)
	return countRuns(s.pso[lo:hi], func(t IDTriple) ID { return t.S })
}

// DistinctObjects returns the number of distinct objects among triples
// with predicate p (Wildcard means "over the whole graph").
func (s *Store) DistinctObjects(p ID) int {
	s.mustBeFrozen()
	if p == Wildcard {
		return nonEmptyRuns(s.objOff)
	}
	lo, hi := runOf(s.predOff, p)
	return countRuns(s.pos[lo:hi], func(t IDTriple) ID { return t.O })
}

// nonEmptyRuns counts the IDs that lead at least one row.
func nonEmptyRuns(off []uint32) int {
	n := 0
	for v := 0; v+1 < len(off); v++ {
		if off[v] < off[v+1] {
			n++
		}
	}
	return n
}

func countRuns(ts []IDTriple, component func(IDTriple) ID) int {
	n := 0
	var prev ID
	for i, t := range ts {
		c := component(t)
		if i == 0 || c != prev {
			n++
			prev = c
		}
	}
	return n
}

// ForEachSubject calls fn once per distinct subject with the subject's
// triples sorted by (P,O). The slice is only valid during the call.
// It powers characteristic-set extraction and per-instance min/max counts.
func (s *Store) ForEachSubject(fn func(subject ID, triples []IDTriple) bool) {
	s.mustBeFrozen()
	start := 0
	for i := 1; i <= len(s.spo); i++ {
		if i == len(s.spo) || s.spo[i].S != s.spo[start].S {
			if !fn(s.spo[start].S, s.spo[start:i]) {
				return
			}
			start = i
		}
	}
}

// Predicates returns the distinct predicate IDs in the graph, ascending.
func (s *Store) Predicates() []ID {
	s.mustBeFrozen()
	var out []ID
	for p := 0; p+1 < len(s.predOff); p++ {
		if s.predOff[p] < s.predOff[p+1] {
			out = append(out, ID(p))
		}
	}
	return out
}

// ObjectsOf returns the distinct objects of triples with predicate p, e.g.
// the class IRIs when p is rdf:type.
func (s *Store) ObjectsOf(p ID) []ID {
	s.mustBeFrozen()
	lo, hi := runOf(s.predOff, p)
	var out []ID
	var prev ID
	for i, t := range s.pos[lo:hi] {
		if i == 0 || t.O != prev {
			out = append(out, t.O)
			prev = t.O
		}
	}
	return out
}
