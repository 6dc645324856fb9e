package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"rdfshapes/internal/frame"
	"rdfshapes/internal/rdf"
	"rdfshapes/internal/store"
)

const testDir = "/data"

// batchN builds a deterministic single-insert batch.
func batchN(i int) Batch {
	return Batch{Insert: []rdf.Triple{rdf.NewTriple(
		rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)),
		rdf.NewIRI("http://x/p"),
		rdf.NewLiteral(fmt.Sprintf("v%d", i)),
	)}}
}

// graphOf builds a graph holding every triple in set.
func graphOf(set map[rdf.Triple]bool) rdf.Graph {
	var g rdf.Graph
	for tr := range set {
		g.Append(tr.S, tr.P, tr.O)
	}
	return g
}

// applyBatch folds a batch into a triple set (insert-then-delete, the
// live store's set semantics).
func applyBatch(set map[rdf.Triple]bool, b Batch) {
	for _, tr := range b.Insert {
		set[tr] = true
	}
	for _, tr := range b.Delete {
		delete(set, tr)
	}
}

// storeTriples extracts a store's contents as a term-level triple set.
func storeTriples(st *store.Store) map[rdf.Triple]bool {
	out := map[rdf.Triple]bool{}
	st.Scan(store.IDTriple{}, func(tr store.IDTriple) bool {
		out[rdf.Triple{S: st.Dict().Term(tr.S), P: st.Dict().Term(tr.P), O: st.Dict().Term(tr.O)}] = true
		return true
	})
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	b := Batch{
		Insert: []rdf.Triple{
			rdf.NewTriple(rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p"), rdf.NewLangLiteral("hej", "da")),
			rdf.NewTriple(rdf.NewBlank("n1"), rdf.NewIRI("http://x/q"), rdf.NewTypedLiteral("5", rdf.XSDInteger)),
		},
		Delete: []rdf.Triple{
			rdf.NewTriple(rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p"), rdf.NewLiteral("x\ny")),
		},
	}
	img := append(frame.AppendHeader(nil, walMagic, 7), encodeRecord(42, b)...)
	var got []Batch
	var gotSeq uint64
	n, tear := ScanLog(img, 7, func(seq uint64, b Batch) error {
		gotSeq = seq
		got = append(got, b)
		return nil
	})
	if tear != nil {
		t.Fatalf("tear on valid record: %v", tear)
	}
	if n != len(img) {
		t.Fatalf("valid prefix %d, want %d", n, len(img))
	}
	if gotSeq != 42 {
		t.Errorf("seq = %d, want 42", gotSeq)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], b) {
		t.Errorf("batch did not round-trip: %+v", got)
	}
	// A header naming another generation holds nothing replayable.
	if n, err := ScanLog(img, 8, func(uint64, Batch) error { return nil }); n != 0 || !errors.Is(err, frame.ErrTorn) {
		t.Errorf("foreign generation: prefix %d, err %v; want 0 and a tear", n, err)
	}
}

func TestScanRecordsTornTails(t *testing.T) {
	data := frame.AppendHeader(nil, walMagic, 1)
	bounds := map[int]bool{len(data): true}
	for i := 0; i < 3; i++ {
		data = append(data, encodeRecord(uint64(i+1), batchN(i))...)
		bounds[len(data)] = true
	}
	scan := func(img []byte) (int, error) {
		return ScanLog(img, 1, func(uint64, Batch) error { return nil })
	}
	// every proper prefix must replay a record-aligned prefix and report
	// a tear when it cuts the header or a record
	for cut := 0; cut <= len(data); cut++ {
		n, tear := scan(data[:cut])
		if cut < frame.HeaderLen {
			if n != 0 || !errors.Is(tear, frame.ErrTorn) {
				t.Fatalf("cut %d in header: prefix %d, tear %v; want 0 and a tear", cut, n, tear)
			}
			continue
		}
		if !bounds[n] {
			t.Fatalf("cut %d: valid prefix %d is not a record boundary", cut, n)
		}
		if bounds[cut] && tear != nil {
			t.Fatalf("cut %d on boundary: unexpected tear %v", cut, tear)
		}
		if !bounds[cut] && !errors.Is(tear, frame.ErrTorn) {
			t.Fatalf("cut %d mid-record: tear %v, want frame.ErrTorn", cut, tear)
		}
	}
	// a flipped byte anywhere must stop the scan at or before that record
	for i := range data {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x20
		n, tear := scan(mutated)
		if n != 0 && !bounds[n] {
			t.Fatalf("flip %d: valid prefix %d is not a record boundary", i, n)
		}
		if n > i {
			t.Fatalf("flip at %d: prefix %d includes corrupt byte", i, n)
		}
		if !errors.Is(tear, frame.ErrTorn) {
			t.Fatalf("flip at %d: tear %v, want frame.ErrTorn", i, tear)
		}
	}
}

func TestOpenEmptyDirInitializes(t *testing.T) {
	fs := NewMemFS()
	m, base, batches, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if base.Len() != 0 || len(batches) != 0 {
		t.Fatalf("fresh open: %d triples, %d batches", base.Len(), len(batches))
	}
	st := m.Stats()
	if st.Gen != 1 || st.Recovery.Recovered {
		t.Errorf("fresh open stats: %+v", st)
	}
	want := []string{
		filepath.Join(testDir, snapName(1)),
		filepath.Join(testDir, walName(1)),
	}
	if got := fs.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("files = %v, want %v", got, want)
	}
}

func TestAppendReopenReplaysAll(t *testing.T) {
	fs := NewMemFS()
	m, _, _, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	var acked []Batch
	for i := 0; i < 5; i++ {
		if err := m.Append(batchN(i)); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, batchN(i))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, base, batches, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if base.Len() != 0 {
		t.Errorf("base has %d triples, want 0", base.Len())
	}
	if !reflect.DeepEqual(batches, acked) {
		t.Errorf("replayed %d batches, want %d identical", len(batches), len(acked))
	}
	st := m2.Stats()
	if !st.Recovery.Recovered || st.Recovery.RecordsReplayed != 5 || st.LastSeq != 5 {
		t.Errorf("recovery stats: %+v", st)
	}
	// sequence numbers continue after recovery
	if err := m2.Append(batchN(9)); err != nil {
		t.Fatal(err)
	}
	if got := m2.Stats().LastSeq; got != 6 {
		t.Errorf("LastSeq after post-recovery append = %d, want 6", got)
	}
}

func TestCheckpointRotatesPrunesAndReplaysTail(t *testing.T) {
	fs := NewMemFS()
	m, _, _, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	cur := map[rdf.Triple]bool{}
	for i := 0; i < 3; i++ {
		if err := m.Append(batchN(i)); err != nil {
			t.Fatal(err)
		}
		applyBatch(cur, batchN(i))
	}
	gen, err := m.Checkpoint(store.Load(graphOf(cur)).WriteSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("checkpoint gen = %d, want 2", gen)
	}
	for i := 3; i < 5; i++ {
		if err := m.Append(batchN(i)); err != nil {
			t.Fatal(err)
		}
		applyBatch(cur, batchN(i))
	}
	if _, err := m.Checkpoint(store.Load(graphOf(cur)).WriteSnapshot); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(batchN(5)); err != nil {
		t.Fatal(err)
	}
	applyBatch(cur, batchN(5))
	m.Close()

	// generation 1 must be pruned, generation 2 kept as fallback
	want := []string{
		filepath.Join(testDir, snapName(2)),
		filepath.Join(testDir, snapName(3)),
		filepath.Join(testDir, walName(2)),
		filepath.Join(testDir, walName(3)),
	}
	if got := fs.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("files after two checkpoints = %v, want %v", got, want)
	}

	m2, base, batches, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if len(batches) != 1 || !reflect.DeepEqual(batches[0], batchN(5)) {
		t.Fatalf("replayed %d batches, want just the post-checkpoint one", len(batches))
	}
	got := storeTriples(base)
	applyBatch(got, batches[0])
	if !reflect.DeepEqual(got, cur) {
		t.Errorf("recovered state differs: %d triples, want %d", len(got), len(cur))
	}
	if g := m2.Stats().Recovery.SnapshotGen; g != 3 {
		t.Errorf("recovered from snapshot gen %d, want 3", g)
	}
}

func TestTornTailTruncatedAndAppendable(t *testing.T) {
	fs := NewMemFS()
	m, _, _, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Append(batchN(i)); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	// corrupt a byte inside the last record
	if err := fs.Corrupt(filepath.Join(testDir, walName(1)), -3, 0x10); err != nil {
		t.Fatal(err)
	}
	m2, _, batches, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("replayed %d batches past a corrupt tail, want 2", len(batches))
	}
	if tt := m2.Stats().Recovery.TornTruncations; tt != 1 {
		t.Errorf("TornTruncations = %d, want 1", tt)
	}
	// the tail was truncated: appending and reopening must yield exactly
	// the two survivors plus the new record, with no corruption in between
	if err := m2.Append(batchN(7)); err != nil {
		t.Fatal(err)
	}
	m2.Close()
	m3, _, batches, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	want := []Batch{batchN(0), batchN(1), batchN(7)}
	if !reflect.DeepEqual(batches, want) {
		t.Errorf("after truncate+append, replay = %+v, want %+v", batches, want)
	}
	if tt := m3.Stats().Recovery.TornTruncations; tt != 0 {
		t.Errorf("second recovery still truncating: %d", tt)
	}
}

func TestStaleSequenceNumberTreatedAsCorruption(t *testing.T) {
	fs := NewMemFS()
	m, _, _, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(batchN(0)); err != nil {
		t.Fatal(err)
	}
	m.Close()
	// forge a record whose sequence number does not advance
	f, err := fs.Append(filepath.Join(testDir, walName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(encodeRecord(1, batchN(1))); err != nil {
		t.Fatal(err)
	}
	f.Close()
	m2, _, batches, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if len(batches) != 1 || !reflect.DeepEqual(batches[0], batchN(0)) {
		t.Fatalf("stale-seq record replayed: %+v", batches)
	}
	if tt := m2.Stats().Recovery.TornTruncations; tt != 1 {
		t.Errorf("TornTruncations = %d, want 1", tt)
	}
}

func TestCorruptSnapshotFallsBackOneGeneration(t *testing.T) {
	fs := NewMemFS()
	m, _, _, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	cur := map[rdf.Triple]bool{}
	for i := 0; i < 2; i++ {
		if err := m.Append(batchN(i)); err != nil {
			t.Fatal(err)
		}
		applyBatch(cur, batchN(i))
	}
	if _, err := m.Checkpoint(store.Load(graphOf(cur)).WriteSnapshot); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(batchN(2)); err != nil {
		t.Fatal(err)
	}
	applyBatch(cur, batchN(2))
	m.Close()
	// rot the newest snapshot: recovery must fall back to generation 1
	// and rebuild the same state from its WAL trail
	if err := fs.Corrupt(filepath.Join(testDir, snapName(2)), -1, 0x01); err != nil {
		t.Fatal(err)
	}
	m2, base, batches, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rec := m2.Stats().Recovery
	if rec.SnapshotFallbacks != 1 || rec.SnapshotGen != 1 {
		t.Errorf("recovery stats: %+v", rec)
	}
	got := storeTriples(base)
	for _, b := range batches {
		applyBatch(got, b)
	}
	if !reflect.DeepEqual(got, cur) {
		t.Errorf("fallback recovery lost state: %d triples, want %d", len(got), len(cur))
	}
	// the corrupt snapshot is gone; the next recovery is clean
	m2.Close()
	m3, _, _, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if fb := m3.Stats().Recovery.SnapshotFallbacks; fb != 0 {
		t.Errorf("corrupt snapshot not removed: %d fallbacks on reopen", fb)
	}
}

func TestAppendFailurePoisonsUntilCheckpoint(t *testing.T) {
	fs := NewMemFS()
	m, _, _, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Append(batchN(0)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	fs.FailOn = FailNth(0, "sync", boom)
	if err := m.Append(batchN(1)); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("append with failing sync: %v, want ErrWALFailed", err)
	}
	fs.FailOn = nil
	// poisoned: even healthy appends are refused
	if err := m.Append(batchN(2)); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("append while poisoned: %v, want ErrWALFailed", err)
	}
	if !m.Stats().Failed {
		t.Error("Stats().Failed = false while poisoned")
	}
	// a successful checkpoint re-establishes durability
	cur := map[rdf.Triple]bool{}
	applyBatch(cur, batchN(0))
	if _, err := m.Checkpoint(store.Load(graphOf(cur)).WriteSnapshot); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Failed {
		t.Error("still poisoned after successful checkpoint")
	}
	if err := m.Append(batchN(3)); err != nil {
		t.Fatalf("append after recovery checkpoint: %v", err)
	}
}

func TestCheckpointSnapshotFailureLeavesOldGeneration(t *testing.T) {
	fs := NewMemFS()
	m, _, _, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Append(batchN(0)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("enospc")
	fs.FailOn = func(op, name string) error {
		if op == "write" && filepath.Ext(name) == ".tmp" {
			return boom
		}
		return nil
	}
	if _, err := m.Checkpoint(store.Load(graphOf(nil)).WriteSnapshot); err == nil {
		t.Fatal("checkpoint with failing snapshot write succeeded")
	}
	fs.FailOn = nil
	// the failure is retryable: the old generation is intact and appends
	// still work
	if err := m.Append(batchN(1)); err != nil {
		t.Fatalf("append after failed checkpoint: %v", err)
	}
	if st := m.Stats(); st.Gen != 1 || st.Failed {
		t.Errorf("stats after failed checkpoint: %+v", st)
	}
}

func TestCreateRefusesExistingState(t *testing.T) {
	fs := NewMemFS()
	m, _, _, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := Create(testDir, Options{FS: fs}, store.Load(graphOf(nil)).WriteSnapshot); !errors.Is(err, ErrExists) {
		t.Fatalf("Create over existing state: %v, want ErrExists", err)
	}
}

func TestHasState(t *testing.T) {
	fs := NewMemFS()
	if has, _ := HasState(testDir, fs); has {
		t.Error("HasState on missing dir = true")
	}
	m, _, _, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if has, _ := HasState(testDir, fs); !has {
		t.Error("HasState after init = false")
	}
}

func TestClosedManagerRefusesWork(t *testing.T) {
	fs := NewMemFS()
	m, _, _, err := Open(testDir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := m.Append(batchN(0)); !errors.Is(err, ErrClosed) {
		t.Errorf("Append on closed manager: %v", err)
	}
	if _, err := m.Checkpoint(func(io.Writer) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint on closed manager: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"always": SyncAlways, "": SyncAlways, "never": SyncNever} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
}

func TestSyncNeverLosesOnlyUnsyncedTail(t *testing.T) {
	fs := NewMemFS()
	m, _, _, err := Open(testDir, Options{FS: fs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := m.Append(batchN(i)); err != nil {
			t.Fatal(err)
		}
	}
	// no Close: simulate a crash with the page cache gone
	img := fs.CrashImage(CrashSyncedOnly)
	m2, base, batches, err := Open(testDir, Options{FS: img})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if base.Len() != 0 {
		t.Errorf("base has %d triples", base.Len())
	}
	// under SyncNever none of the appends were acknowledged durable, so
	// losing all of them is within contract — but what survives must
	// still be a prefix
	for i, b := range batches {
		if !reflect.DeepEqual(b, batchN(i)) {
			t.Fatalf("batch %d out of order after SyncNever crash", i)
		}
	}
	// a clean Close, by contrast, flushes everything
	m3, _, _, err := Open(testDir, Options{FS: fs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	m3.Close()
}

func TestCloseFlushesSyncNeverTail(t *testing.T) {
	fs := NewMemFS()
	m, _, _, err := Open(testDir, Options{FS: fs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Append(batchN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	img := fs.CrashImage(CrashSyncedOnly)
	m2, _, batches, err := Open(testDir, Options{FS: img})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if len(batches) != 3 {
		t.Errorf("clean shutdown lost records: %d/3 replayed", len(batches))
	}
}
