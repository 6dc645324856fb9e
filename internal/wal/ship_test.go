package wal

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"rdfshapes/internal/store"
)

// shipManager builds a MemFS-backed Manager with n appended batches.
func shipManager(t *testing.T, n int) (*Manager, *MemFS) {
	t.Helper()
	fs := NewMemFS()
	empty := store.New()
	empty.Freeze()
	m, err := Create(testDir, Options{FS: fs}, empty.WriteSnapshot)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := m.Append(batchN(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	return m, fs
}

// decodeAll decodes a segment stream into (gen, seq, batch) tuples plus
// the generations announced, failing the test on any decode error.
func decodeAll(t *testing.T, data []byte) (gens []uint64, seqs []uint64, batches []Batch) {
	t.Helper()
	err := DecodeSegments(data,
		func(g uint64) bool { gens = append(gens, g); return true },
		func(g, seq uint64, b Batch) error {
			seqs = append(seqs, seq)
			batches = append(batches, b)
			return nil
		})
	if err != nil {
		t.Fatalf("DecodeSegments: %v", err)
	}
	return gens, seqs, batches
}

func TestReadSegmentsFromStart(t *testing.T) {
	m, _ := shipManager(t, 5)
	defer m.Close()

	segs, gen, last, err := m.ReadSegments(1, 0)
	if err != nil {
		t.Fatalf("ReadSegments: %v", err)
	}
	if gen != 1 || last != 5 {
		t.Fatalf("gen=%d last=%d, want 1, 5", gen, last)
	}
	if len(segs) != 1 || segs[0].Gen != 1 {
		t.Fatalf("segments %+v, want one segment for gen 1", segs)
	}
	_, seqs, batches := decodeAll(t, EncodeSegments(segs))
	if want := []uint64{1, 2, 3, 4, 5}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("seqs %v, want %v", seqs, want)
	}
	for i, b := range batches {
		if !reflect.DeepEqual(b, batchN(i)) {
			t.Fatalf("batch %d = %+v, want %+v", i, b, batchN(i))
		}
	}
}

func TestReadSegmentsFromSeqFilters(t *testing.T) {
	m, _ := shipManager(t, 5)
	defer m.Close()

	segs, _, _, err := m.ReadSegments(1, 3)
	if err != nil {
		t.Fatalf("ReadSegments: %v", err)
	}
	_, seqs, _ := decodeAll(t, EncodeSegments(segs))
	if want := []uint64{4, 5}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("seqs %v, want %v", seqs, want)
	}

	// Fully caught up: one empty segment for the active generation.
	segs, _, last, err := m.ReadSegments(1, 5)
	if err != nil {
		t.Fatalf("ReadSegments caught-up: %v", err)
	}
	if last != 5 {
		t.Fatalf("last=%d, want 5", last)
	}
	if len(segs) != 1 || len(segs[0].Records) != 0 {
		t.Fatalf("caught-up segments %+v, want one empty segment", segs)
	}
}

func TestReadSegmentsAcrossRotation(t *testing.T) {
	m, _ := shipManager(t, 3)
	defer m.Close()
	st := store.New()
	st.Freeze()
	if _, err := m.Checkpoint(st.WriteSnapshot); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 3; i < 5; i++ {
		if err := m.Append(batchN(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}

	// A follower still on gen 1 with seq 2 applied gets the tail of
	// gen 1 plus all of gen 2, and learns the current gen from the
	// segment list even though it did not witness the checkpoint.
	segs, gen, last, err := m.ReadSegments(1, 2)
	if err != nil {
		t.Fatalf("ReadSegments: %v", err)
	}
	if gen != 2 || last != 5 {
		t.Fatalf("gen=%d last=%d, want 2, 5", gen, last)
	}
	gens, seqs, _ := decodeAll(t, EncodeSegments(segs))
	if want := []uint64{1, 2}; !reflect.DeepEqual(gens, want) {
		t.Fatalf("gens %v, want %v", gens, want)
	}
	if want := []uint64{3, 4, 5}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("seqs %v, want %v", seqs, want)
	}
}

func TestReadSegmentsEmptyRotation(t *testing.T) {
	// A checkpoint with no subsequent commits still surfaces the new
	// generation as an empty segment, so a polling follower's cursor
	// advances and a later prune cannot strand it.
	m, _ := shipManager(t, 2)
	defer m.Close()
	st := store.New()
	st.Freeze()
	if _, err := m.Checkpoint(st.WriteSnapshot); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	segs, gen, _, err := m.ReadSegments(2, 2)
	if err != nil {
		t.Fatalf("ReadSegments: %v", err)
	}
	if gen != 2 || len(segs) != 1 || segs[0].Gen != 2 || len(segs[0].Records) != 0 {
		t.Fatalf("gen=%d segs=%+v, want gen 2 with one empty segment", gen, segs)
	}
}

func TestReadSegmentsPruned(t *testing.T) {
	m, _ := shipManager(t, 2)
	defer m.Close()
	st := store.New()
	st.Freeze()
	for i := 0; i < 2; i++ { // two checkpoints prune generation 1
		if _, err := m.Checkpoint(st.WriteSnapshot); err != nil {
			t.Fatalf("Checkpoint %d: %v", i, err)
		}
	}
	if _, _, _, err := m.ReadSegments(1, 2); !errors.Is(err, ErrGenPruned) {
		t.Fatalf("ReadSegments(pruned gen) err=%v, want ErrGenPruned", err)
	}
	// A generation from the future (divergent follower) is equally
	// unanswerable and must force a re-bootstrap.
	if _, _, _, err := m.ReadSegments(99, 0); !errors.Is(err, ErrGenPruned) {
		t.Fatalf("ReadSegments(future gen) err=%v, want ErrGenPruned", err)
	}
}

func TestSnapshotDataPairsWithTail(t *testing.T) {
	m, _ := shipManager(t, 3)
	defer m.Close()
	st := store.New()
	st.Freeze()
	if _, err := m.Checkpoint(st.WriteSnapshot); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := m.Append(batchN(3)); err != nil {
		t.Fatalf("Append: %v", err)
	}

	gen, data, err := m.SnapshotData()
	if err != nil {
		t.Fatalf("SnapshotData: %v", err)
	}
	if gen != 2 {
		t.Fatalf("snapshot gen %d, want 2", gen)
	}
	if _, err := store.ReadSnapshot(bytes.NewReader(data)); err != nil {
		t.Fatalf("snapshot undecodable: %v", err)
	}
	// Tailing from (gen, 0) yields exactly the post-snapshot commits.
	segs, _, _, err := m.ReadSegments(gen, 0)
	if err != nil {
		t.Fatalf("ReadSegments: %v", err)
	}
	_, seqs, _ := decodeAll(t, EncodeSegments(segs))
	if want := []uint64{4}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("post-snapshot seqs %v, want %v", seqs, want)
	}
}

func TestReadSegmentsClosed(t *testing.T) {
	m, _ := shipManager(t, 1)
	m.Close()
	if _, _, _, err := m.ReadSegments(1, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadSegments after Close err=%v, want ErrClosed", err)
	}
	if _, _, err := m.SnapshotData(); !errors.Is(err, ErrClosed) {
		t.Fatalf("SnapshotData after Close err=%v, want ErrClosed", err)
	}
}

func TestDecodeSegmentsTornAtEveryBoundary(t *testing.T) {
	m, _ := shipManager(t, 4)
	defer m.Close()
	segs, _, _, err := m.ReadSegments(1, 0)
	if err != nil {
		t.Fatalf("ReadSegments: %v", err)
	}
	wire := EncodeSegments(segs)

	// At every truncation point the decoder must deliver a valid prefix
	// of the record sequence and flag the tear — never a partial,
	// corrupt, or out-of-order record.
	// cut=0 is excluded: an empty stream is a valid zero-segment answer.
	for cut := 1; cut < len(wire); cut++ {
		var seqs []uint64
		err := DecodeSegments(wire[:cut], nil, func(g, seq uint64, b Batch) error {
			seqs = append(seqs, seq)
			return nil
		})
		if err == nil {
			t.Fatalf("cut=%d: torn stream decoded without error", cut)
		}
		if !IsTorn(err) {
			t.Fatalf("cut=%d: err=%v, want IsTorn", cut, err)
		}
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("cut=%d: seqs %v are not a prefix of 1..4", cut, seqs)
			}
		}
	}
	// The full stream decodes clean.
	_, seqs, _ := decodeAll(t, wire)
	if want := []uint64{1, 2, 3, 4}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("full decode seqs %v, want %v", seqs, want)
	}
}

func TestDecodeSegmentsCorruptPayload(t *testing.T) {
	m, _ := shipManager(t, 2)
	defer m.Close()
	segs, _, _, err := m.ReadSegments(1, 0)
	if err != nil {
		t.Fatalf("ReadSegments: %v", err)
	}
	wire := EncodeSegments(segs)
	wire[len(wire)-1] ^= 0xFF // flip a byte in the last record's payload

	var seqs []uint64
	derr := DecodeSegments(wire, nil, func(g, seq uint64, b Batch) error {
		seqs = append(seqs, seq)
		return nil
	})
	if !IsTorn(derr) {
		t.Fatalf("corrupt stream err=%v, want IsTorn", derr)
	}
	if want := []uint64{1}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("seqs %v, want the intact prefix %v", seqs, want)
	}
}

func TestDecodeSegmentsCallbackError(t *testing.T) {
	m, _ := shipManager(t, 3)
	defer m.Close()
	segs, _, _, err := m.ReadSegments(1, 0)
	if err != nil {
		t.Fatalf("ReadSegments: %v", err)
	}
	boom := fmt.Errorf("apply failed")
	derr := DecodeSegments(EncodeSegments(segs), nil, func(g, seq uint64, b Batch) error {
		if seq == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(derr, boom) {
		t.Fatalf("err=%v, want the callback error", derr)
	}
	if IsTorn(derr) {
		t.Fatalf("callback error must not read as a torn stream")
	}
}

func TestReadSegmentsConcurrentWithAppend(t *testing.T) {
	// Shipping reads the active file while appends land; every read must
	// see a valid record prefix, never a torn frame.
	m, _ := shipManager(t, 1)
	defer m.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i < 50; i++ {
			if err := m.Append(batchN(i)); err != nil {
				t.Errorf("Append: %v", err)
				return
			}
		}
	}()
	for j := 0; j < 20; j++ {
		segs, _, _, err := m.ReadSegments(1, 0)
		if err != nil {
			t.Fatalf("ReadSegments: %v", err)
		}
		last := uint64(0)
		if derr := DecodeSegments(EncodeSegments(segs), nil, func(g, seq uint64, b Batch) error {
			if seq != last+1 {
				return fmt.Errorf("gap: %d after %d", seq, last)
			}
			last = seq
			return nil
		}); derr != nil {
			t.Fatalf("decode during append: %v", derr)
		}
	}
	<-done
}
