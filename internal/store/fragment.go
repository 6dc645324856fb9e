package store

// Fragment is a small immutable sorted index over a set of ID triples. The
// live layer uses two fragments (added, deleted) as the delta overlay on
// top of a frozen base store: like the base it keeps all four orderings,
// so every triple-pattern shape is still a prefix range scan.
//
// All methods are safe on a nil receiver, which represents the empty
// fragment; NewFragment returns nil for an empty input so empty overlays
// cost nothing to check.
type Fragment struct {
	indexes
}

// NewFragment builds a fragment from ts (copied, deduplicated). The IDs
// must come from the same dictionary as any store the fragment overlays.
func NewFragment(ts []IDTriple) *Fragment {
	if len(ts) == 0 {
		return nil
	}
	f := &Fragment{}
	f.spo = append([]IDTriple(nil), ts...)
	sortTriples(f.spo, ordSPO)
	f.spo = dedupe(f.spo)
	for _, o := range []order{ordPSO, ordPOS, ordOSP} {
		*f.by(o) = append([]IDTriple(nil), f.spo...)
		sortTriples(*f.by(o), o)
	}
	return f
}

// Len returns the number of distinct triples in the fragment.
func (f *Fragment) Len() int {
	if f == nil {
		return 0
	}
	return len(f.spo)
}

// Scan calls fn for every triple matching pat (Wildcard matches anything),
// in the serving index's sort order. fn returning false stops the scan.
func (f *Fragment) Scan(pat IDTriple, fn func(IDTriple) bool) {
	if f == nil {
		return
	}
	idx, lo, hi := f.match(pat)
	for _, t := range idx[lo:hi] {
		if !fn(t) {
			return
		}
	}
}

// ScanChunks splits the rows matching pat into at most n contiguous
// chunks; running the closures in order is equivalent to one Scan. Nil
// receivers and empty matches return nil.
func (f *Fragment) ScanChunks(pat IDTriple, n int) []func(fn func(IDTriple) bool) {
	if f == nil {
		return nil
	}
	idx, lo, hi := f.match(pat)
	return chunkRange(idx, lo, hi, n)
}

// Range returns the rows matching pat as a subslice of the serving
// index, sorted by KeyOrder(pat) and shared with the fragment. Nil
// receivers return nil.
func (f *Fragment) Range(pat IDTriple) []IDTriple {
	if f == nil {
		return nil
	}
	idx, lo, hi := f.match(pat)
	return idx[lo:hi]
}

// Count returns the number of triples matching pat in O(log n).
func (f *Fragment) Count(pat IDTriple) int {
	if f == nil {
		return 0
	}
	_, lo, hi := f.match(pat)
	return hi - lo
}

// Contains reports whether the fully bound triple is in the fragment.
func (f *Fragment) Contains(t IDTriple) bool {
	return f.Count(t) > 0
}

// Triples returns the fragment's triples in SPO order. The slice is shared
// with the fragment and must not be modified.
func (f *Fragment) Triples() []IDTriple {
	if f == nil {
		return nil
	}
	return f.spo
}
