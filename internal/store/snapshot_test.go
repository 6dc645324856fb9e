package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"rdfshapes/internal/frame"
	"rdfshapes/internal/rdf"
)

func TestSnapshotRoundTrip(t *testing.T) {
	st := Load(testGraph())
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Len() != st.Len() {
		t.Fatalf("triple count %d != %d", rt.Len(), st.Len())
	}
	if rt.Dict().Len() != st.Dict().Len() {
		t.Fatalf("dictionary size %d != %d", rt.Dict().Len(), st.Dict().Len())
	}
	// every original triple must be present with the same IDs
	st.Scan(IDTriple{}, func(tr IDTriple) bool {
		if !rt.Contains(tr) {
			t.Errorf("triple %v missing after round trip", tr)
		}
		return true
	})
	// dictionary terms must map identically
	for id := ID(1); int(id) <= st.Dict().Len(); id++ {
		if st.Dict().Term(id) != rt.Dict().Term(id) {
			t.Errorf("term %d differs: %v vs %v", id, st.Dict().Term(id), rt.Dict().Term(id))
		}
	}
	if rt.TypeID() != st.TypeID() {
		t.Errorf("TypeID %d != %d", rt.TypeID(), st.TypeID())
	}
}

func TestSnapshotPreservesLiterals(t *testing.T) {
	var g rdf.Graph
	g.Append(rdf.NewIRI("http://s"), rdf.NewIRI("http://p"), rdf.NewLangLiteral("hej", "da"))
	g.Append(rdf.NewIRI("http://s"), rdf.NewIRI("http://q"), rdf.NewTypedLiteral("5", rdf.XSDInteger))
	g.Append(rdf.NewBlank("b"), rdf.NewIRI("http://p"), rdf.NewLiteral("x\ny"))
	st := Load(g)
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range []rdf.Term{
		rdf.NewLangLiteral("hej", "da"),
		rdf.NewTypedLiteral("5", rdf.XSDInteger),
		rdf.NewBlank("b"),
		rdf.NewLiteral("x\ny"),
	} {
		if _, ok := rt.Dict().Lookup(term); !ok {
			t.Errorf("term %v lost in snapshot", term)
		}
	}
}

func TestSnapshotEmptyStoreRoundTrip(t *testing.T) {
	st := New()
	st.Freeze()
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Len() != 0 {
		t.Errorf("Len = %d, want 0", rt.Len())
	}
	if rt.Dict().Len() != 0 {
		t.Errorf("Dict().Len() = %d, want 0", rt.Dict().Len())
	}
	if rt.TypeID() != 0 {
		t.Errorf("TypeID = %d, want 0", rt.TypeID())
	}
}

func TestSnapshotTypeIDZeroRoundTrip(t *testing.T) {
	// a dataset without any rdf:type triple has TypeID 0; the round trip
	// must preserve that rather than resolving 0 to a real term
	var g rdf.Graph
	g.Append(rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/o"))
	st := Load(g)
	if st.TypeID() != 0 {
		t.Fatalf("precondition: TypeID = %d, want 0", st.TypeID())
	}
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rt.TypeID() != 0 {
		t.Errorf("TypeID = %d after round trip, want 0", rt.TypeID())
	}
	if rt.Len() != 1 {
		t.Errorf("Len = %d, want 1", rt.Len())
	}
}

func TestSnapshotErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad magic":    "NOTASNAP",
		"truncated":    "RDFSNAP2",
		"v1 file":      "RDFSNAP1\x01\x00\x01s\x00\x00\x01\x01\x01\x01", // complete, but unchecksummed: refused
		"short header": "RDF",
	}
	for name, input := range cases {
		if _, err := ReadSnapshot([]byte(input)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// validSnapshot returns the snapshot bytes of the test graph's store.
func validSnapshot(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Load(testGraph()).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotChecksumRejectsBitFlips flips every byte of a valid
// snapshot in turn; each mutation must be rejected with ErrCorrupt
// (CRC32C detects all single-byte errors).
func TestSnapshotChecksumRejectsBitFlips(t *testing.T) {
	valid := validSnapshot(t)
	for i := range valid {
		mutated := append([]byte(nil), valid...)
		mutated[i] ^= 0x40
		if _, err := ReadSnapshot(mutated); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at byte %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

// TestSnapshotTruncationsRejected truncates a valid snapshot at every
// byte boundary; every proper prefix must fail with ErrCorrupt.
func TestSnapshotTruncationsRejected(t *testing.T) {
	valid := validSnapshot(t)
	for i := 0; i < len(valid); i++ {
		if _, err := ReadSnapshot(valid[:i]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at byte %d/%d: err = %v, want ErrCorrupt", i, len(valid), err)
		}
	}
	if _, err := ReadSnapshot(valid); err != nil {
		t.Fatalf("full snapshot rejected: %v", err)
	}
}

func TestSnapshotTrailingDataRejected(t *testing.T) {
	data := append(validSnapshot(t), "extra"...)
	if _, err := ReadSnapshot(data); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing data: err = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotCorruptTripleIDsRejected(t *testing.T) {
	// handcraft a snapshot, valid checksum included, with a triple
	// referencing term 99
	var buf bytes.Buffer
	buf.WriteByte(1)             // 1 term
	buf.WriteByte(byte(rdf.IRI)) // kind
	buf.WriteByte(3)             // len("abc")
	buf.WriteString("abc")       //
	buf.WriteByte(0)             // datatype ""
	buf.WriteByte(0)             // lang ""
	buf.WriteByte(1)             // 1 triple
	buf.WriteByte(99)            // S delta = 99 (out of range)
	buf.WriteByte(1)             // P
	buf.WriteByte(1)             // O
	file := append([]byte(snapshotMagic), buf.Bytes()...)
	file = binary.LittleEndian.AppendUint32(file, frame.Checksum(buf.Bytes()))
	if _, err := ReadSnapshot(file); !errors.Is(err, ErrCorrupt) {
		t.Errorf("out-of-range term ID: err = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotRequiresFrozenStore(t *testing.T) {
	st := New()
	st.Add(rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewIRI("o")))
	defer func() {
		if recover() == nil {
			t.Error("WriteSnapshot on unfrozen store did not panic")
		}
	}()
	var buf bytes.Buffer
	_ = st.WriteSnapshot(&buf)
}
