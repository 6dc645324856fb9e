package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rdfshapes/internal/rdf"
)

// The access-path oracle: whatever offsets, in-run searches and gallops
// the store uses, every read of a pattern must equal a linear filter of
// the triple set, in the documented order.

func matches(pat, t IDTriple) bool {
	return (pat.S == 0 || pat.S == t.S) && (pat.P == 0 || pat.P == t.P) && (pat.O == 0 || pat.O == t.O)
}

// filterSorted returns the triples of set matching pat, sorted by less.
func filterSorted(set []IDTriple, pat IDTriple, less func(a, b IDTriple) bool) []IDTriple {
	var out []IDTriple
	for _, t := range set {
		if matches(pat, t) {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, func(a, b IDTriple) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
	return out
}

// reader is the read surface Store and Fragment share.
type reader interface {
	Scan(IDTriple, func(IDTriple) bool)
	ScanChunks(IDTriple, int) []func(func(IDTriple) bool)
	Range(IDTriple) []IDTriple
	Count(IDTriple) int
	Contains(IDTriple) bool
	LeadRange(IDTriple, int) ([]IDTriple, bool)
}

// checkReads compares every read of pat through r with the oracle.
func checkReads(t *testing.T, name string, r reader, set []IDTriple, pat IDTriple) {
	t.Helper()
	want := filterSorted(set, pat, KeyOrder(pat))
	same := func(what string, got []IDTriple) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s %s(%v) = %v, want %v", name, what, pat, got, want)
		}
	}
	var scanned []IDTriple
	r.Scan(pat, func(tr IDTriple) bool { scanned = append(scanned, tr); return true })
	same("Scan", scanned)
	var chunked []IDTriple
	for _, chunk := range r.ScanChunks(pat, 3) {
		chunk(func(tr IDTriple) bool { chunked = append(chunked, tr); return true })
	}
	same("ScanChunks", chunked)
	same("Range", r.Range(pat))
	if got := r.Count(pat); got != len(want) {
		t.Fatalf("%s Count(%v) = %d, want %d", name, pat, got, len(want))
	}
	if pat.S != 0 && pat.P != 0 && pat.O != 0 {
		if got := r.Contains(pat); got != (len(want) == 1) {
			t.Fatalf("%s Contains(%v) = %v with %d matches", name, pat, got, len(want))
		}
	}
	for lead := LeadS; lead <= LeadO; lead++ {
		rows, ok := r.LeadRange(pat, lead)
		if ok != LeadOrderAvailable(pat, lead) {
			t.Fatalf("%s LeadRange(%v, %d) ok = %v, LeadOrderAvailable says %v", name, pat, lead, ok, !ok)
		}
		if !ok {
			continue
		}
		less, _ := LeadOrder(pat, lead)
		if wantLead := filterSorted(set, pat, less); !slices.Equal(rows, wantLead) {
			t.Fatalf("%s LeadRange(%v, %d) = %v, want %v", name, pat, lead, rows, wantLead)
		}
	}
}

// checkAccessPaths builds a frozen store and a fragment over set — IDs
// of a dictionary holding dictTerms terms, which may be far more than
// the triples use — interns lateTerms more after Freeze, and compares
// every bound shape over candidate IDs of every kind: used by the set,
// inside the dictionary but unused, past the store's largest, interned
// after Freeze, and past the dictionary altogether.
func checkAccessPaths(t *testing.T, set []IDTriple, dictTerms, lateTerms int) {
	t.Helper()
	d := NewDict()
	intern := func(n int) {
		for i := 0; i < n; i++ {
			d.Intern(rdf.NewIRI(fmt.Sprintf("http://x/t%d", d.Len())))
		}
	}
	intern(dictTerms)
	st := NewWithDict(d)
	for _, tr := range set {
		if err := st.TryAddID(tr); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	intern(lateTerms)
	frag := NewFragment(set)

	cand := []ID{Wildcard, ID(dictTerms), ID(dictTerms + 1), ID(d.Len()), ID(d.Len() + 1), 1<<32 - 1}
	var largest ID
	for _, tr := range set {
		cand = append(cand, tr.S, tr.P, tr.O)
		largest = max(largest, tr.S, tr.P, tr.O)
	}
	cand = append(cand, largest+1, largest+2)
	slices.Sort(cand)
	cand = slices.Compact(cand)
	if len(cand) > 12 { // keep the cube small: the kinds above, then a spread of used IDs
		step := len(cand) / 12
		var thin []ID
		for i := 0; i < len(cand); i += step {
			thin = append(thin, cand[i])
		}
		cand = append(thin, Wildcard, largest, largest+1, ID(d.Len()), 1<<32-1)
	}
	for _, s := range cand {
		for _, p := range cand {
			for _, o := range cand {
				pat := IDTriple{S: s, P: p, O: o}
				checkReads(t, "store", st, set, pat)
				checkReads(t, "fragment", frag, set, pat)
			}
		}
	}

	// The statistics reads that take their predicate run from the
	// offset table.
	preds := map[ID]bool{}
	for _, tr := range set {
		preds[tr.P] = true
	}
	if got := st.Predicates(); len(got) != len(preds) || !slices.IsSorted(got) {
		t.Fatalf("Predicates() = %v, want the %d distinct predicates ascending", got, len(preds))
	}
	for _, p := range append(st.Predicates(), Wildcard, largest+1, 1<<32-1) {
		subj, obj := map[ID]bool{}, map[ID]bool{}
		for _, tr := range set {
			if p == Wildcard || tr.P == p {
				subj[tr.S], obj[tr.O] = true, true
			}
		}
		if got := st.DistinctSubjects(p); got != len(subj) {
			t.Fatalf("DistinctSubjects(%d) = %d, want %d", p, got, len(subj))
		}
		if got := st.DistinctObjects(p); got != len(obj) {
			t.Fatalf("DistinctObjects(%d) = %d, want %d", p, got, len(obj))
		}
		if p != Wildcard {
			if got := st.ObjectsOf(p); len(got) != len(obj) || !slices.IsSorted(got) {
				t.Fatalf("ObjectsOf(%d) = %v, want %d objects ascending", p, got, len(obj))
			}
		}
	}
}

// decodeTriples reads a triple set from fuzz bytes: the first byte is
// the ID universe (small, so runs of every length occur), each further
// three bytes one triple. An ID is never 0.
func decodeTriples(data []byte) (set []IDTriple, universe int) {
	if len(data) == 0 {
		return nil, 1
	}
	universe = 1 + int(data[0])%40
	data = data[1:]
	if len(data) > 3*64 {
		data = data[:3*64]
	}
	seen := map[IDTriple]bool{}
	for ; len(data) >= 3; data = data[3:] {
		tr := IDTriple{
			S: ID(1 + int(data[0])%universe),
			P: ID(1 + int(data[1])%universe),
			O: ID(1 + int(data[2])%universe),
		}
		if !seen[tr] {
			seen[tr] = true
			set = append(set, tr)
		}
	}
	return set, universe
}

// FuzzStoreMatch checks every read of every bound shape against the
// linear-filter oracle, over a triple set decoded from the input. The
// dictionary is sized by the input too: exactly the IDs used, or many
// times that (NewWithDict over another store's dictionary) when the
// last byte is odd.
func FuzzStoreMatch(f *testing.F) {
	// Larger seeds are files under testdata/fuzz/FuzzStoreMatch.
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		set, universe := decodeTriples(data)
		slack := 0
		if len(data) > 0 && data[len(data)-1]%2 == 1 {
			slack = 50 * universe
		}
		checkAccessPaths(t, set, universe+slack, 3)
	})
}

// TestStoreMatchProperty runs the same oracle over seeded random sets:
// dense and sparse ID use, long and single-row runs, an empty store.
func TestStoreMatchProperty(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		universe := 1 + r.Intn(30)
		n := r.Intn(80)
		if seed == 0 {
			n = 0
		}
		seen := map[IDTriple]bool{}
		var set []IDTriple
		for i := 0; i < n; i++ {
			tr := IDTriple{
				S: ID(1 + r.Intn(universe)),
				P: ID(1 + r.Intn(1+universe/4)),
				O: ID(1 + r.Intn(universe)),
			}
			if !seen[tr] {
				seen[tr] = true
				set = append(set, tr)
			}
		}
		checkAccessPaths(t, set, universe+r.Intn(2)*1000, r.Intn(4))
	}
}

// TestEqualRunBounds walks equalRun over every sub-range of a sorted
// column, for present and absent values: the gallop must stop exactly
// at the run's end whatever the run length and wherever the range ends.
func TestEqualRunBounds(t *testing.T) {
	var idx []IDTriple
	for v, n := range []int{0, 1, 0, 2, 3, 7, 1, 16, 33} {
		for i := 0; i < n; i++ {
			idx = append(idx, IDTriple{S: ID(v)})
		}
	}
	for lo := 0; lo <= len(idx); lo++ {
		for hi := lo; hi <= len(idx); hi++ {
			for v := ID(0); v <= 10; v++ {
				wantLo, wantHi := hi, hi
				for i := hi - 1; i >= lo; i-- {
					if idx[i].S >= v {
						wantLo = i
					}
					if idx[i].S > v {
						wantHi = i
					}
				}
				if gotLo, gotHi := equalRun(idx, lo, hi, LeadS, v); gotLo != wantLo || gotHi != wantHi {
					t.Fatalf("equalRun(idx, %d, %d, S, %d) = [%d,%d), want [%d,%d)", lo, hi, v, gotLo, gotHi, wantLo, wantHi)
				}
			}
		}
	}
}
