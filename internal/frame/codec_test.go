package frame_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"rdfshapes/internal/frame"
	"rdfshapes/internal/rdf"
	"rdfshapes/internal/store"
	"rdfshapes/internal/wal"
)

// The codec's contract, pinned over both formats built on it: the bytes
// match golden files written before the formats moved onto this package,
// every damaged input decodes to an intact prefix plus a typed tear (WAL)
// or store.ErrCorrupt (snapshot), and no input makes a decoder allocate
// more than its bytes could hold.

var (
	s1   = rdf.NewIRI("http://x/s1")
	s2   = rdf.NewIRI("http://x/s2")
	p    = rdf.NewIRI("http://x/p")
	q    = rdf.NewIRI("http://x/q")
	hej  = rdf.NewTriple(s1, p, rdf.NewLangLiteral("hej", "da"))
	five = rdf.NewTriple(rdf.NewBlank("b1"), q, rdf.NewTypedLiteral("5", rdf.XSDInteger))
)

// goldenBatches is the commit sequence testdata/golden.wal logs: an IRI,
// a blank node, a typed and a language-tagged literal, in insert and
// delete batches.
var goldenBatches = []wal.Batch{
	{Insert: []rdf.Triple{hej, five}},
	{Delete: []rdf.Triple{hej}},
	{Insert: []rdf.Triple{rdf.NewTriple(s2, p, rdf.NewLiteral("x\ny"))}, Delete: []rdf.Triple{five}},
}

// goldenStore is the store testdata/golden.snap holds.
func goldenStore() *store.Store {
	var g rdf.Graph
	g.Append(s1, rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/C"))
	g.Append(s1, p, rdf.NewLangLiteral("hej", "da"))
	g.Append(rdf.NewBlank("b1"), q, rdf.NewTypedLiteral("5", rdf.XSDInteger))
	g.Append(s2, p, rdf.NewLiteral("x\ny"))
	return store.Load(g)
}

func golden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// logBatches writes batches through a fresh Manager and returns the
// manager and its WAL file.
func logBatches(t testing.TB, batches []wal.Batch) (*wal.Manager, []byte) {
	t.Helper()
	fs := wal.NewMemFS()
	empty := store.New()
	empty.Freeze()
	m, err := wal.Create("/data", wal.Options{FS: fs}, empty.WriteSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := m.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	file, err := fs.ReadFile("/data/wal-0000000000000001.log")
	if err != nil {
		t.Fatal(err)
	}
	return m, file
}

// scanAll decodes a generation-1 WAL image, keeping the batches of
// records numbered 1, 2, 3, ... in order and refusing any other number.
func scanAll(data []byte) (n int, batches []wal.Batch, err error) {
	n, err = wal.ScanLog(data, 1, func(seq uint64, b wal.Batch) error {
		if seq != uint64(len(batches)+1) {
			return errOutOfOrder
		}
		batches = append(batches, b)
		return nil
	})
	return n, batches, err
}

var errOutOfOrder = errors.New("record out of order")

func TestGoldenBytes(t *testing.T) {
	m, file := logBatches(t, goldenBatches)
	defer m.Close()
	if want := golden(t, "golden.wal"); !bytes.Equal(file, want) {
		t.Fatalf("WAL bytes differ from testdata/golden.wal:\n got %x\nwant %x", file, want)
	}
	seg, _, _, err := m.ReadSegment(1, 0)
	if err != nil || !bytes.Equal(seg, file) {
		t.Fatalf("/repl/wal body from seq 0 is not the WAL file (err %v)", err)
	}
	if _, got, err := scanAll(file); err != nil || !reflect.DeepEqual(got, goldenBatches) {
		t.Fatalf("golden WAL decodes to %+v, %v", got, err)
	}

	var buf bytes.Buffer
	if err := goldenStore().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	want := golden(t, "golden.snap")
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("snapshot bytes differ from testdata/golden.snap:\n got %x\nwant %x", buf.Bytes(), want)
	}
	st, err := store.ReadSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := st.WriteSnapshot(&buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("golden snapshot does not re-encode to itself (err %v)", err)
	}
}

// checkWAL fails unless damaged decodes to an intact record prefix of the
// golden log, ending in a frame.ErrTorn tear unless damaged is itself a
// golden prefix cut on a record boundary.
func checkWAL(t *testing.T, label string, damaged []byte) {
	intact := golden(t, "golden.wal")
	n, got, err := scanAll(damaged)
	if len(got) > len(goldenBatches) || len(got) > 0 && !reflect.DeepEqual(got, goldenBatches[:len(got)]) {
		t.Fatalf("%s: decoded %+v, not a prefix of the golden batches", label, got)
	}
	if !bytes.Equal(damaged[:n], intact[:min(n, len(intact))]) {
		t.Fatalf("%s: valid prefix of %d bytes includes damage", label, n)
	}
	if err == nil {
		if n != len(damaged) {
			t.Fatalf("%s: clean scan stopped at %d of %d bytes", label, n, len(damaged))
		}
		return
	}
	if !errors.Is(err, frame.ErrTorn) {
		t.Fatalf("%s: err %v is not a tear", label, err)
	}
}

// checkSnapshot fails unless damaged is rejected with store.ErrCorrupt.
func checkSnapshot(t *testing.T, label string, damaged []byte) {
	if _, err := store.ReadSnapshot(damaged); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("%s: err %v, want store.ErrCorrupt", label, err)
	}
}

// TestCorruptionTable cuts each golden file at every offset, flips every
// bit, and appends trailing bytes. The WAL row doubles as the /repl/wal
// body, which TestGoldenBytes shows is the file itself from seq 0.
func TestCorruptionTable(t *testing.T) {
	for _, tc := range []struct {
		file  string
		check func(t *testing.T, label string, damaged []byte)
	}{
		{"golden.wal", checkWAL},
		{"golden.snap", checkSnapshot},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data := golden(t, tc.file)
			for cut := 0; cut < len(data); cut++ {
				tc.check(t, fmt.Sprintf("cut at %d", cut), data[:cut])
			}
			for bit := 0; bit < 8*len(data); bit++ {
				damaged := append([]byte(nil), data...)
				damaged[bit/8] ^= 1 << (bit % 8)
				tc.check(t, fmt.Sprintf("bit %d flipped", bit), damaged)
			}
			tc.check(t, "trailing bytes", append(append([]byte(nil), data...), "extra"...))
		})
	}
}

// sealWAL frames payload as the one record of a generation-1 WAL image.
func sealWAL(payload []byte) []byte {
	return frame.AppendRecord(frame.AppendHeader(nil, "RDFWAL01", 1), payload)
}

// sealSnapshot wraps body in a snapshot's magic and checksum.
func sealSnapshot(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte("RDFSNAP2"), body...), frame.Checksum(body))
}

func uvarints(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// TestDecodeAllocationBounded feeds both decoders checksum-valid inputs
// of at most 64 bytes whose counts and lengths claim far more than the
// bytes hold: the decoder must reject them without allocating the claim.
func TestDecodeAllocationBounded(t *testing.T) {
	const walClaim, snapClaim = 1 << 17, 1 << 23
	inputs := map[string][]byte{
		"wal inserts":        sealWAL(uvarints(1, walClaim, 0)),
		"wal deletes":        sealWAL(uvarints(1, 0, walClaim)),
		"wal value length":   sealWAL(append(uvarints(1, 1, 0), append([]byte{byte(rdf.IRI)}, uvarints(walClaim)...)...)),
		"snapshot terms":     sealSnapshot(uvarints(snapClaim)),
		"snapshot string":    sealSnapshot(append(uvarints(1), append([]byte{byte(rdf.IRI)}, uvarints(snapClaim)...)...)),
		"snapshot triples":   sealSnapshot(uvarints(0, snapClaim)),
		"snapshot, no check": append([]byte("RDFSNAP2"), append(uvarints(1), append([]byte{byte(rdf.IRI)}, uvarints(snapClaim)...)...)...),
	}
	for name, data := range inputs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, werr := scanAll(data)
		_, serr := store.ReadSnapshot(data)
		runtime.ReadMemStats(&after)
		if werr == nil || serr == nil {
			t.Fatalf("%s: accepted (wal err %v, snapshot err %v)", name, werr, serr)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", name, len(data), got)
		}
	}
}

// FuzzDecode seals its input as a WAL record payload and as a snapshot
// body, so it reaches the decoders behind the checksums. Neither may
// panic or fail untyped, and whatever either accepts must re-encode to
// the same contents.
func FuzzDecode(f *testing.F) {
	log := golden(f, "golden.wal")
	first := log[frame.HeaderLen+frame.FrameLen:]
	f.Add(first[:binary.LittleEndian.Uint32(log[frame.HeaderLen:])])
	snap := golden(f, "golden.snap")
	f.Add(snap[8 : len(snap)-4])
	f.Add(uvarints(1, 1<<17, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, got, err := scanAll(sealWAL(data)); err != nil {
			if !errors.Is(err, frame.ErrTorn) && err != errOutOfOrder {
				t.Fatalf("WAL decode failed untyped: %v", err)
			}
		} else {
			m, file := logBatches(t, got)
			m.Close()
			if _, again, err := scanAll(file); err != nil || !reflect.DeepEqual(again, got) {
				t.Fatalf("WAL batch %+v re-decoded as %+v, %v", got, again, err)
			}
		}

		st, err := store.ReadSnapshot(sealSnapshot(data))
		if err != nil {
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("snapshot decode failed untyped: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := st.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		rt, err := store.ReadSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if rt.Len() != st.Len() || rt.Dict().Len() != st.Dict().Len() {
			t.Fatalf("round trip changed sizes: %d/%d triples, %d/%d terms",
				st.Len(), rt.Len(), st.Dict().Len(), rt.Dict().Len())
		}
	})
}
