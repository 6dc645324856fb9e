package store

import (
	"bytes"
	"testing"

	"rdfshapes/internal/rdf"
)

// fuzzSeedSnapshots returns valid snapshot encodings used to seed the
// fuzzer: an empty store and a small mixed-term store.
func fuzzSeedSnapshots(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte

	empty := New()
	empty.Freeze()
	var b1 bytes.Buffer
	if err := empty.WriteSnapshot(&b1); err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, b1.Bytes())

	var g rdf.Graph
	g.Append(rdf.NewIRI("http://x/s"), rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/C"))
	g.Append(rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p"), rdf.NewLangLiteral("hej", "da"))
	g.Append(rdf.NewBlank("b"), rdf.NewIRI("http://x/p"), rdf.NewTypedLiteral("5", rdf.XSDInteger))
	var b2 bytes.Buffer
	if err := Load(g).WriteSnapshot(&b2); err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, b2.Bytes())
	return seeds
}

// FuzzReadSnapshot asserts that arbitrary bytes never panic the decoder
// (the maxSnapshotString guard also bounds allocations), and that any
// input it accepts round-trips losslessly through WriteSnapshot.
func FuzzReadSnapshot(f *testing.F) {
	for _, seed := range fuzzSeedSnapshots(f) {
		f.Add(seed)
	}
	f.Add([]byte("RDFSNAP2"))
	f.Add([]byte("RDFSNAP1\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := st.WriteSnapshot(&buf); err != nil {
			t.Fatalf("re-encoding accepted snapshot: %v", err)
		}
		rt, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("re-decoding re-encoded snapshot: %v", err)
		}
		if rt.Len() != st.Len() || rt.Dict().Len() != st.Dict().Len() {
			t.Fatalf("round trip changed sizes: %d/%d triples, %d/%d terms",
				st.Len(), rt.Len(), st.Dict().Len(), rt.Dict().Len())
		}
	})
}
