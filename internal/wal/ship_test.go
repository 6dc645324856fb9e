package wal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"rdfshapes/internal/frame"
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

// decodeAll decodes a generation's segment into (seq, batch) pairs,
// failing the test on any decode error.
func decodeAll(t *testing.T, seg []byte, gen uint64) (seqs []uint64, batches []Batch) {
	t.Helper()
	if _, err := ScanLog(seg, gen, func(seq uint64, b Batch) error {
		seqs = append(seqs, seq)
		batches = append(batches, b)
		return nil
	}); err != nil {
		t.Fatalf("ScanLog: %v", err)
	}
	return seqs, batches
}

// mustSegment reads a segment and checks the generation and target.
func mustSegment(t *testing.T, m *Manager, gen, from, wantCur, wantTarget uint64) []byte {
	t.Helper()
	seg, cur, target, err := m.ReadSegment(gen, from)
	if err != nil {
		t.Fatalf("ReadSegment(%d, %d): %v", gen, from, err)
	}
	if cur != wantCur || target != wantTarget {
		t.Fatalf("ReadSegment(%d, %d): current gen %d, target %d; want %d, %d", gen, from, cur, target, wantCur, wantTarget)
	}
	return seg
}

func TestReadSegmentsFromStart(t *testing.T) {
	m, fs := shipManager(t, 5)
	defer m.Close()

	seg := mustSegment(t, m, 1, 0, 1, 5)
	// From the start, the segment is the WAL file itself.
	file, err := fs.ReadFile(filepath.Join(testDir, walName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg, file) {
		t.Fatalf("segment from 0 is not wal-1.log: %d vs %d bytes", len(seg), len(file))
	}
	seqs, batches := decodeAll(t, seg, 1)
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

	seqs, _ := decodeAll(t, mustSegment(t, m, 1, 3, 1, 5), 1)
	if want := []uint64{4, 5}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("seqs %v, want %v", seqs, want)
	}

	// Fully caught up: the header alone.
	if seg := mustSegment(t, m, 1, 5, 1, 5); len(seg) != frame.HeaderLen {
		t.Fatalf("caught-up segment is %d bytes, want the %d-byte header", len(seg), frame.HeaderLen)
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

	// A follower still on gen 1 with seq 2 applied gets the tail of gen 1,
	// whose target is gen 1's last seq, and learns the current gen from
	// the response even though it did not witness the checkpoint.
	seqs, _ := decodeAll(t, mustSegment(t, m, 1, 2, 2, 3), 1)
	if want := []uint64{3}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("gen 1 seqs %v, want %v", seqs, want)
	}
	// Having exhausted gen 1, it asks gen 2 for the rest.
	seqs, _ = decodeAll(t, mustSegment(t, m, 2, 3, 2, 5), 2)
	if want := []uint64{4, 5}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("gen 2 seqs %v, want %v", seqs, want)
	}
	// A gen 1 cursor already past gen 1's records targets its own seq.
	if seg := mustSegment(t, m, 1, 3, 2, 3); len(seg) != frame.HeaderLen {
		t.Fatalf("exhausted gen 1 segment is %d bytes, want the header", len(seg))
	}
}

func TestReadSegmentsEmptyRotation(t *testing.T) {
	// A checkpoint with no subsequent commits still answers for the new
	// generation with its header, so a polling follower's cursor
	// advances and a later prune cannot strand it.
	m, _ := shipManager(t, 2)
	defer m.Close()
	st := store.New()
	st.Freeze()
	if _, err := m.Checkpoint(st.WriteSnapshot); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	mustSegment(t, m, 1, 2, 2, 2)
	if seqs, _ := decodeAll(t, mustSegment(t, m, 2, 2, 2, 2), 2); len(seqs) != 0 {
		t.Fatalf("empty generation shipped records %v", seqs)
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
	if _, _, _, err := m.ReadSegment(1, 2); !errors.Is(err, ErrGenPruned) {
		t.Fatalf("ReadSegment(pruned gen) err=%v, want ErrGenPruned", err)
	}
	// A generation from the future (divergent follower) is equally
	// unanswerable and must force a re-bootstrap.
	if _, _, _, err := m.ReadSegment(99, 0); !errors.Is(err, ErrGenPruned) {
		t.Fatalf("ReadSegment(future gen) err=%v, want ErrGenPruned", err)
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
	if _, err := store.ReadSnapshot(data); err != nil {
		t.Fatalf("snapshot undecodable: %v", err)
	}
	// Tailing from (gen, 0) yields exactly the post-snapshot commits.
	seqs, _ := decodeAll(t, mustSegment(t, m, gen, 0, 2, 4), gen)
	if want := []uint64{4}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("post-snapshot seqs %v, want %v", seqs, want)
	}
}

func TestReadSegmentsClosed(t *testing.T) {
	m, _ := shipManager(t, 1)
	m.Close()
	if _, _, _, err := m.ReadSegment(1, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadSegment after Close err=%v, want ErrClosed", err)
	}
	if _, _, err := m.SnapshotData(); !errors.Is(err, ErrClosed) {
		t.Fatalf("SnapshotData after Close err=%v, want ErrClosed", err)
	}
}

func TestDecodeSegmentsTornAtEveryBoundary(t *testing.T) {
	m, _ := shipManager(t, 4)
	defer m.Close()
	seg := mustSegment(t, m, 1, 0, 1, 4)

	// At every truncation point the decoder must deliver a valid prefix
	// of the record sequence and leave the round visibly incomplete: a
	// tear, or — cut on a record boundary — a last seq short of the
	// target. Never a partial, corrupt, or out-of-order record.
	for cut := 0; cut < len(seg); cut++ {
		var seqs []uint64
		_, err := ScanLog(seg[:cut], 1, func(seq uint64, b Batch) error {
			seqs = append(seqs, seq)
			return nil
		})
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("cut=%d: seqs %v are not a prefix of 1..4", cut, seqs)
			}
		}
		if err == nil && len(seqs) == 4 {
			t.Fatalf("cut=%d: torn body decoded as complete", cut)
		}
		if err != nil && !errors.Is(err, frame.ErrTorn) {
			t.Fatalf("cut=%d: err=%v, want frame.ErrTorn", cut, err)
		}
	}
	// The full body decodes clean and reaches the target.
	if seqs, _ := decodeAll(t, seg, 1); !reflect.DeepEqual(seqs, []uint64{1, 2, 3, 4}) {
		t.Fatalf("full decode seqs %v, want 1..4", seqs)
	}
}

func TestDecodeSegmentsCorruptPayload(t *testing.T) {
	m, _ := shipManager(t, 2)
	defer m.Close()
	seg := mustSegment(t, m, 1, 0, 1, 2)
	seg[len(seg)-1] ^= 0xFF // flip a byte in the last record's payload

	var seqs []uint64
	_, derr := ScanLog(seg, 1, func(seq uint64, b Batch) error {
		seqs = append(seqs, seq)
		return nil
	})
	if !errors.Is(derr, frame.ErrTorn) {
		t.Fatalf("corrupt body err=%v, want frame.ErrTorn", derr)
	}
	if want := []uint64{1}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("seqs %v, want the intact prefix %v", seqs, want)
	}
}

func TestDecodeSegmentsCallbackError(t *testing.T) {
	m, _ := shipManager(t, 3)
	defer m.Close()
	boom := fmt.Errorf("apply failed")
	_, derr := ScanLog(mustSegment(t, m, 1, 0, 1, 3), 1, func(seq uint64, b Batch) error {
		if seq == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(derr, boom) {
		t.Fatalf("err=%v, want the callback error", derr)
	}
	if errors.Is(derr, frame.ErrTorn) {
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
		seg, _, target, err := m.ReadSegment(1, 0)
		if err != nil {
			t.Fatalf("ReadSegment: %v", err)
		}
		last := uint64(0)
		if _, derr := ScanLog(seg, 1, func(seq uint64, b Batch) error {
			if seq != last+1 {
				return fmt.Errorf("gap: %d after %d", seq, last)
			}
			last = seq
			return nil
		}); derr != nil {
			t.Fatalf("decode during append: %v", derr)
		}
		if last != target {
			t.Fatalf("segment reaches seq %d, target %d", last, target)
		}
	}
	<-done
}
