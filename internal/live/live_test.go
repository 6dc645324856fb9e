package live

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rdfshapes/internal/rdf"
	"rdfshapes/internal/store"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }

func triple(s, p, o string) rdf.Triple {
	return rdf.NewTriple(iri(s), iri(p), iri(o))
}

func baseStore(ts ...rdf.Triple) *store.Store {
	var g rdf.Graph
	for _, t := range ts {
		g.Append(t.S, t.P, t.O)
	}
	return store.Load(g)
}

// viewSet collects a snapshot's merged view as a set of ID triples.
func viewSet(s *Snapshot) map[store.IDTriple]bool {
	out := map[store.IDTriple]bool{}
	s.Scan(store.IDTriple{}, func(t store.IDTriple) bool {
		out[t] = true
		return true
	})
	return out
}

func TestWrapRequiresFrozenBase(t *testing.T) {
	st := store.New()
	st.Add(triple("s", "p", "o"))
	defer func() {
		if recover() == nil {
			t.Error("Wrap of an unfrozen store did not panic")
		}
	}()
	Wrap(st)
}

func TestApplySemantics(t *testing.T) {
	ls := Wrap(baseStore(triple("a", "p", "b"), triple("a", "p", "c")))

	// insert one new, one already present
	ci := ls.Apply(Batch{Insert: []rdf.Triple{triple("a", "p", "d"), triple("a", "p", "b")}})
	if len(ci.Inserted) != 1 || len(ci.Deleted) != 0 {
		t.Fatalf("effective delta = +%d/-%d, want +1/-0", len(ci.Inserted), len(ci.Deleted))
	}
	if ls.Snapshot().Len() != 3 {
		t.Errorf("Len = %d, want 3", ls.Snapshot().Len())
	}

	// delete a base triple and a missing one
	ci = ls.Apply(Batch{Delete: []rdf.Triple{triple("a", "p", "b"), triple("zz", "p", "b")}})
	if len(ci.Inserted) != 0 || len(ci.Deleted) != 1 {
		t.Fatalf("effective delta = +%d/-%d, want +0/-1", len(ci.Inserted), len(ci.Deleted))
	}

	// delete an overlay addition: the added fragment shrinks back
	ci = ls.Apply(Batch{Delete: []rdf.Triple{triple("a", "p", "d")}})
	if len(ci.Deleted) != 1 {
		t.Fatalf("deleting an overlay addition not effective")
	}
	if a, d := ls.OverlaySize(); a != 0 || d != 1 {
		t.Errorf("overlay = +%d/-%d, want +0/-1", a, d)
	}

	// resurrect the deleted base triple
	ci = ls.Apply(Batch{Insert: []rdf.Triple{triple("a", "p", "b")}})
	if len(ci.Inserted) != 1 {
		t.Fatalf("resurrecting a deleted base triple not effective")
	}
	if a, d := ls.OverlaySize(); a != 0 || d != 0 {
		t.Errorf("overlay = +%d/-%d, want +0/-0", a, d)
	}

	// a no-op batch publishes nothing
	before := ls.Snapshot()
	ci = ls.Apply(Batch{Insert: []rdf.Triple{triple("a", "p", "b")}})
	if ci.Prev != ci.Next || ls.Snapshot() != before {
		t.Error("no-op batch published a new snapshot")
	}

	// delete-then-insert within one batch keeps the triple
	ci = ls.Apply(Batch{Delete: []rdf.Triple{triple("a", "p", "c")}, Insert: []rdf.Triple{triple("a", "p", "c")}})
	if !ls.Snapshot().Contains(ci.Inserted[0]) {
		t.Error("triple deleted and reinserted in one batch is missing")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	ls := Wrap(baseStore(triple("a", "p", "b")))
	old := ls.Snapshot()
	oldView := viewSet(old)
	ls.Apply(Batch{Insert: []rdf.Triple{triple("c", "p", "d")}})
	ls.Apply(Batch{Delete: []rdf.Triple{triple("a", "p", "b")}})
	if got := viewSet(old); len(got) != len(oldView) {
		t.Errorf("old snapshot changed: %d triples, want %d", len(got), len(oldView))
	}
	if old.Len() != 1 || ls.Snapshot().Len() != 1 {
		t.Errorf("Len old=%d new=%d, want 1 and 1", old.Len(), ls.Snapshot().Len())
	}
	if ls.Snapshot().Gen() <= old.Gen() {
		t.Error("generation did not advance")
	}
}

// TestApplyAgainstOracle drives random batches through the live store and
// cross-checks Scan, Count, Len, and Contains against a map oracle.
func TestApplyAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	names := []string{"a", "b", "c", "d", "e"}
	preds := []string{"p", "q"}
	randTriple := func() rdf.Triple {
		return triple(names[rng.Intn(len(names))], preds[rng.Intn(len(preds))], names[rng.Intn(len(names))])
	}

	base := baseStore(triple("a", "p", "b"), triple("b", "q", "c"), triple("c", "p", "a"))
	ls := Wrap(base)
	oracle := map[rdf.Triple]bool{}
	base.Scan(store.IDTriple{}, func(it store.IDTriple) bool {
		d := base.Dict()
		oracle[rdf.NewTriple(d.Term(it.S), d.Term(it.P), d.Term(it.O))] = true
		return true
	})

	for step := 0; step < 200; step++ {
		var b Batch
		for i := rng.Intn(4); i >= 0; i-- {
			b.Insert = append(b.Insert, randTriple())
		}
		for i := rng.Intn(4); i >= 0; i-- {
			b.Delete = append(b.Delete, randTriple())
		}
		ci := ls.Apply(b)

		wantIns, wantDel := 0, 0
		seen := map[rdf.Triple]bool{}
		for _, tr := range b.Delete {
			if oracle[tr] && !seen[tr] {
				wantDel++
				seen[tr] = true
				delete(oracle, tr)
			}
		}
		seen = map[rdf.Triple]bool{}
		for _, tr := range b.Insert {
			if !oracle[tr] && !seen[tr] {
				wantIns++
				seen[tr] = true
				oracle[tr] = true
			}
		}
		if len(ci.Inserted) != wantIns || len(ci.Deleted) != wantDel {
			t.Fatalf("step %d: effective delta +%d/-%d, oracle +%d/-%d",
				step, len(ci.Inserted), len(ci.Deleted), wantIns, wantDel)
		}

		snap := ls.Snapshot()
		if snap.Len() != len(oracle) {
			t.Fatalf("step %d: Len = %d, oracle %d", step, snap.Len(), len(oracle))
		}
		d := snap.Dict()
		got := 0
		snap.Scan(store.IDTriple{}, func(it store.IDTriple) bool {
			got++
			tr := rdf.NewTriple(d.Term(it.S), d.Term(it.P), d.Term(it.O))
			if !oracle[tr] {
				t.Fatalf("step %d: scan yielded %v, not in oracle", step, tr)
			}
			return true
		})
		if got != len(oracle) {
			t.Fatalf("step %d: scan visited %d, oracle %d", step, got, len(oracle))
		}
		// spot-check a pattern count: all triples with predicate p
		pid, ok := d.Lookup(iri("p"))
		if ok {
			want := 0
			for tr := range oracle {
				if tr.P == iri("p") {
					want++
				}
			}
			if c := snap.Count(store.IDTriple{P: pid}); c != want {
				t.Fatalf("step %d: Count(?,p,?) = %d, oracle %d", step, c, want)
			}
		}

		// occasionally compact and re-verify
		if step%37 == 36 {
			if _, err := ls.Compact(); err != nil {
				t.Fatalf("step %d: Compact: %v", step, err)
			}
			if a, del := ls.OverlaySize(); a != 0 || del != 0 {
				t.Fatalf("step %d: overlay +%d/-%d after compaction", step, a, del)
			}
			if ls.Snapshot().Len() != len(oracle) {
				t.Fatalf("step %d: Len = %d after compaction, oracle %d", step, ls.Snapshot().Len(), len(oracle))
			}
		}
	}
}

func TestCompactEmptyOverlayIsNoop(t *testing.T) {
	ls := Wrap(baseStore(triple("a", "p", "b")))
	before := ls.Snapshot()
	after, err := ls.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Error("compacting an empty overlay published a new snapshot")
	}
}

func TestAutoCompact(t *testing.T) {
	ls := Wrap(baseStore(triple("a", "p", "b")))
	ls.SetAutoCompact(4)
	for i := 0; i < 10; i++ {
		ls.Apply(Batch{Insert: []rdf.Triple{triple("s", "p", fmt.Sprintf("o%d", i))}})
	}
	ls.Wait()
	if a, d := ls.OverlaySize(); a+d >= 10 {
		t.Errorf("overlay +%d/-%d after auto-compaction, want shrunk", a, d)
	}
	if ls.Snapshot().Len() != 11 {
		t.Errorf("Len = %d, want 11", ls.Snapshot().Len())
	}
}

// TestConcurrentCompactionsDoNotRevertCommits exercises overlapping
// Compact callers (the background compactor racing direct calls from
// WriteSnapshot/Reannotate). Without whole-compaction serialization the
// phase-2 rebase of a lagging Compact assumes the base it started from
// is still current and publishes an inverted residual, silently
// reverting commits; this asserts every committed insert survives. Run
// under -race.
func TestConcurrentCompactionsDoNotRevertCommits(t *testing.T) {
	const (
		writers    = 3
		compactors = 3
		commits    = 120
	)
	ls := Wrap(baseStore(triple("seed", "p", "o")))
	done := make(chan struct{})

	var compWG sync.WaitGroup
	for c := 0; c < compactors; c++ {
		compWG.Add(1)
		go func() {
			defer compWG.Done()
			for {
				select {
				case <-done:
					return
				default:
					if _, err := ls.Compact(); err != nil {
						t.Errorf("Compact: %v", err)
						return
					}
				}
			}
		}()
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < commits; i++ {
				ls.Apply(Batch{Insert: []rdf.Triple{
					triple(fmt.Sprintf("w%d", w), "p", fmt.Sprintf("o%d", i)),
				}})
			}
		}(w)
	}
	writerWG.Wait()
	close(done)
	compWG.Wait()
	ls.Wait()

	snap := ls.Snapshot()
	if want := 1 + writers*commits; snap.Len() != want {
		t.Errorf("Len = %d after concurrent compactions, want %d", snap.Len(), want)
	}
	d := snap.Dict()
	for w := 0; w < writers; w++ {
		for i := 0; i < commits; i++ {
			it, ok := lookupTriple(d, triple(fmt.Sprintf("w%d", w), "p", fmt.Sprintf("o%d", i)))
			if !ok || !snap.Contains(it) {
				t.Fatalf("committed triple w%d o%d reverted by a concurrent compaction", w, i)
			}
		}
	}
}

func TestSnapshotTypeIDFromOverlay(t *testing.T) {
	ls := Wrap(baseStore(triple("a", "p", "b")))
	if got := ls.Snapshot().TypeID(); got != 0 {
		t.Fatalf("TypeID = %d with no rdf:type anywhere, want 0", got)
	}
	ls.Apply(Batch{Insert: []rdf.Triple{
		rdf.NewTriple(iri("a"), rdf.NewIRI(rdf.RDFType), iri("C")),
	}})
	if ls.Snapshot().TypeID() == 0 {
		t.Error("TypeID = 0 with a typed triple in the overlay")
	}
}

// TestConcurrentReadersWritersNoTornBatches is the torn-batch race test:
// every writer commit inserts or deletes a PAIR of triples for one
// subject atomically, so any consistent snapshot contains 0 or 2 triples
// per subject — a reader observing exactly 1 has seen a torn batch.
// A compactor churns in the background. Run under -race.
func TestConcurrentReadersWritersNoTornBatches(t *testing.T) {
	const (
		writers = 4
		readers = 4
		commits = 150
	)
	ls := Wrap(baseStore(triple("seed", "p", "o")))
	done := make(chan struct{})

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < commits; i++ {
				subj := fmt.Sprintf("w%d-s%d", w, i%7)
				pairBatch := Batch{Insert: []rdf.Triple{
					triple(subj, "left", "l"),
					triple(subj, "right", "r"),
				}}
				if i%2 == 1 {
					pairBatch = Batch{Delete: pairBatch.Insert}
				}
				ls.Apply(pairBatch)
			}
		}(w)
	}

	var auxWG sync.WaitGroup
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for {
			select {
			case <-done:
				return
			default:
				if _, err := ls.Compact(); err != nil {
					t.Errorf("Compact: %v", err)
					return
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		auxWG.Add(1)
		go func() {
			defer auxWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := ls.Snapshot()
				d := snap.Dict()
				left, okL := d.Lookup(iri("left"))
				right, okR := d.Lookup(iri("right"))
				if !okL || !okR {
					continue
				}
				perSubj := map[store.ID]int{}
				snap.Scan(store.IDTriple{P: left}, func(tr store.IDTriple) bool {
					perSubj[tr.S]++
					return true
				})
				snap.Scan(store.IDTriple{P: right}, func(tr store.IDTriple) bool {
					perSubj[tr.S]++
					return true
				})
				for s, n := range perSubj {
					if n != 2 {
						t.Errorf("torn batch: subject %v has %d of 2 pair triples (gen %d)",
							d.Term(s), n, snap.Gen())
						return
					}
				}
			}
		}()
	}

	writerWG.Wait()
	close(done)
	auxWG.Wait()
	ls.Wait()
}

// TestProbeTermInternedAfterFreeze: a committed triple whose subject and
// object the dictionary first saw after the base was frozen carries IDs
// past the base's run offset tables. Every bound-shape probe of it must
// find it in the overlay (and nothing in the base) before compaction,
// and in the rebuilt base after.
func TestProbeTermInternedAfterFreeze(t *testing.T) {
	ls := Wrap(baseStore(triple("a", "p", "b"), triple("a", "q", "c")))
	ls.Apply(Batch{Insert: []rdf.Triple{triple("fresh", "p", "alsofresh")}})

	d := ls.Snapshot().Dict()
	id := func(name string) store.ID {
		v, ok := d.Lookup(iri(name))
		if !ok {
			t.Fatalf("%s not interned", name)
		}
		return v
	}
	want := store.IDTriple{S: id("fresh"), P: id("p"), O: id("alsofresh")}
	for _, tr := range ls.Snapshot().Base().Range(store.IDTriple{}) {
		if max(tr.S, tr.P, tr.O) >= min(want.S, want.O) {
			t.Fatalf("base triple %v reaches the fresh IDs %d, %d", tr, want.S, want.O)
		}
	}
	check := func(when string, snap *Snapshot) {
		t.Helper()
		for mask := 1; mask < 8; mask++ {
			var pat store.IDTriple
			if mask&1 != 0 {
				pat.S = want.S
			}
			if mask&2 != 0 {
				pat.P = want.P
			}
			if mask&4 != 0 {
				pat.O = want.O
			}
			var got []store.IDTriple
			snap.Scan(pat, func(tr store.IDTriple) bool {
				if tr.S == want.S {
					got = append(got, tr)
				}
				return true
			})
			if len(got) != 1 || got[0] != want {
				t.Errorf("%s: Scan(%v) found %v of the fresh subject, want %v", when, pat, got, want)
			}
			if n := snap.Count(pat); mask != 2 && n != 1 {
				t.Errorf("%s: Count(%v) = %d, want 1", when, pat, n)
			}
		}
		if !snap.Contains(want) {
			t.Errorf("%s: Contains(%v) = false", when, want)
		}
	}
	check("overlay", ls.Snapshot())
	compacted, err := ls.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if a, del := compacted.Overlay(); a != 0 || del != 0 {
		t.Fatalf("overlay +%d/-%d after Compact", a, del)
	}
	check("compacted", compacted)
}
