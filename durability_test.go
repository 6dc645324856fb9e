package rdfshapes_test

import (
	"errors"
	"fmt"
	"testing"

	"rdfshapes"
	"rdfshapes/internal/gstats"
	"rdfshapes/internal/rdf"
	"rdfshapes/internal/wal"
)

func xiri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }

// durabilitySeed is the dataset every durability test starts from: two
// classes with described properties, so incremental shape statistics
// have something exact to maintain through replay.
func durabilitySeed() rdf.Graph {
	typ := rdf.NewIRI(rdf.RDFType)
	var g rdf.Graph
	g.Append(xiri("p1"), typ, xiri("Person"))
	g.Append(xiri("p2"), typ, xiri("Person"))
	g.Append(xiri("r1"), typ, xiri("Robot"))
	g.Append(xiri("p1"), xiri("name"), rdf.NewLiteral("P1"))
	g.Append(xiri("p2"), xiri("name"), rdf.NewLiteral("P2"))
	g.Append(xiri("p1"), xiri("knows"), xiri("p2"))
	g.Append(xiri("r1"), xiri("serial"), rdf.NewLiteral("007"))
	return g
}

// durabilityUpdates is the attempted commit sequence: single-operation
// SPARQL updates over the seed's classes and described predicates only,
// so the maintained statistics stay exact and the recovery oracle can
// demand equality.
type durabilityUpdate struct {
	insert bool
	triple rdf.Triple
}

func durabilityUpdates() []durabilityUpdate {
	typ := rdf.NewIRI(rdf.RDFType)
	return []durabilityUpdate{
		{true, rdf.NewTriple(xiri("p3"), typ, xiri("Person"))},
		{true, rdf.NewTriple(xiri("p3"), xiri("name"), rdf.NewLiteral("P3"))},
		{true, rdf.NewTriple(xiri("p3"), xiri("knows"), xiri("p1"))},
		{false, rdf.NewTriple(xiri("p1"), xiri("knows"), xiri("p2"))},
		{true, rdf.NewTriple(xiri("r2"), typ, xiri("Robot"))},
		{true, rdf.NewTriple(xiri("r2"), xiri("serial"), rdf.NewLiteral("008"))},
		{false, rdf.NewTriple(xiri("p2"), xiri("name"), rdf.NewLiteral("P2"))},
		{true, rdf.NewTriple(xiri("p2"), xiri("knows"), xiri("p3"))},
	}
}

func (u durabilityUpdate) sparql() string {
	verb := "INSERT"
	if !u.insert {
		verb = "DELETE"
	}
	return fmt.Sprintf("%s DATA { %s }", verb, u.triple)
}

// durabilityStates returns the expected triple set after the seed plus
// each prefix of the updates: states[0] is empty (nothing durable),
// states[1] the seed, states[1+i] the seed plus the first i updates.
func durabilityStates() []map[rdf.Triple]bool {
	empty := map[rdf.Triple]bool{}
	cur := map[rdf.Triple]bool{}
	for _, tr := range durabilitySeed() {
		cur[tr] = true
	}
	states := []map[rdf.Triple]bool{empty, cloneSet(cur)}
	for _, u := range durabilityUpdates() {
		if u.insert {
			cur[u.triple] = true
		} else {
			delete(cur, u.triple)
		}
		states = append(states, cloneSet(cur))
	}
	return states
}

func cloneSet(in map[rdf.Triple]bool) map[rdf.Triple]bool {
	out := make(map[rdf.Triple]bool, len(in))
	for tr := range in {
		out[tr] = true
	}
	return out
}

// dbTriples extracts a DB's full dataset — base plus overlay — through
// the query path.
func dbTriples(t *testing.T, db *rdfshapes.DB) map[rdf.Triple]bool {
	t.Helper()
	res, err := db.Query(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatalf("scanning dataset: %v", err)
	}
	out := make(map[rdf.Triple]bool, len(res.Rows))
	for _, row := range res.Rows {
		var tr rdf.Triple
		for _, f := range []struct {
			v    string
			term *rdf.Term
		}{{"s", &tr.S}, {"p", &tr.P}, {"o", &tr.O}} {
			term, err := rdf.ParseTerm(row[f.v])
			if err != nil {
				t.Fatalf("parsing %q: %v", row[f.v], err)
			}
			*f.term = term
		}
		out[tr] = true
	}
	return out
}

func graphOf(set map[rdf.Triple]bool) rdf.Graph {
	var g rdf.Graph
	for tr := range set {
		g.Append(tr.S, tr.P, tr.O)
	}
	return g
}

// assertStatsOracle compares the recovered DB's maintained statistics
// against a from-scratch recompute over the same triples: the exact
// global fields and the exact shape fields (sh:count,
// sh:distinctSubjectCount) must be equal, not approximate.
func assertStatsOracle(t *testing.T, db *rdfshapes.DB, triples map[rdf.Triple]bool, label string) {
	t.Helper()
	oracle, err := rdfshapes.Load(graphOf(triples))
	if err != nil {
		t.Fatalf("%s: building oracle: %v", label, err)
	}
	defer oracle.Close()
	got, want := db.Stats(), oracle.Stats()
	exactGlobalsEqual(t, got, want, label)
	for _, ws := range oracle.Shapes().Shapes() {
		gs := db.Shapes().ByClass(ws.TargetClass)
		if gs == nil {
			t.Errorf("%s: shape for %s missing after recovery", label, ws.TargetClass)
			continue
		}
		if gs.Count != ws.Count {
			t.Errorf("%s: %s sh:count = %d, want %d", label, ws.TargetClass, gs.Count, ws.Count)
		}
		for _, wp := range ws.Properties {
			gp := gs.Property(wp.Path)
			if gp == nil || gp.Stats == nil || wp.Stats == nil {
				continue // undescribed at snapshot time: drift, not error
			}
			if gp.Stats.Count != wp.Stats.Count {
				t.Errorf("%s: %s %s sh:count = %d, want %d",
					label, ws.TargetClass, wp.Path, gp.Stats.Count, wp.Stats.Count)
			}
			if gp.Stats.DistinctSubjectCount != wp.Stats.DistinctSubjectCount {
				t.Errorf("%s: %s %s sh:distinctSubjectCount = %d, want %d",
					label, ws.TargetClass, wp.Path, gp.Stats.DistinctSubjectCount, wp.Stats.DistinctSubjectCount)
			}
		}
	}
}

func exactGlobalsEqual(t *testing.T, got, want *gstats.Global, label string) {
	t.Helper()
	if got.Triples != want.Triples {
		t.Errorf("%s: Triples = %d, want %d", label, got.Triples, want.Triples)
	}
	if got.DistinctSubjects != want.DistinctSubjects {
		t.Errorf("%s: DistinctSubjects = %d, want %d", label, got.DistinctSubjects, want.DistinctSubjects)
	}
	if got.DistinctObjects != want.DistinctObjects {
		t.Errorf("%s: DistinctObjects = %d, want %d", label, got.DistinctObjects, want.DistinctObjects)
	}
	for p, w := range want.Pred {
		if g := got.Pred[p]; g != w {
			t.Errorf("%s: Pred[%s] = %+v, want %+v", label, p, g, w)
		}
	}
	for c, w := range want.ClassInstances {
		if g := got.ClassInstances[c]; g != w {
			t.Errorf("%s: ClassInstances[%s] = %d, want %d", label, c, g, w)
		}
	}
}

// TestDurabilityRoundTripOnDisk exercises the real filesystem end to
// end: seed, update, checkpoint, update, close, recover, verify.
func TestDurabilityRoundTripOnDisk(t *testing.T) {
	dir := t.TempDir()
	db, err := rdfshapes.Load(durabilitySeed(), rdfshapes.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !db.Durable() {
		t.Fatal("Durable() = false after WithDurability")
	}
	updates := durabilityUpdates()
	for i, u := range updates {
		if _, err := db.Update(u.sparql()); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if i == 3 {
			cs, err := db.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			if cs.Generation != 2 {
				t.Errorf("checkpoint generation = %d, want 2", cs.Generation)
			}
		}
	}
	ds, ok := db.DurabilityStats()
	if !ok || ds.Generation != 2 || ds.Checkpoints != 1 || ds.RecordsAppended != int64(len(updates)) {
		t.Errorf("durability stats before close: %+v", ds)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := rdfshapes.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ds, ok = re.DurabilityStats()
	if !ok || !ds.Recovered {
		t.Errorf("durability stats after reopen: %+v", ds)
	}
	states := durabilityStates()
	final := states[len(states)-1]
	got := dbTriples(t, re)
	if len(got) != len(final) {
		t.Fatalf("recovered %d triples, want %d", len(got), len(final))
	}
	for tr := range final {
		if !got[tr] {
			t.Errorf("recovered dataset missing %s", tr)
		}
	}
	assertStatsOracle(t, re, final, "reopen")
	// the recovered DB accepts and persists further updates
	if _, err := re.Update(`INSERT DATA { <http://x/p4> <http://x/name> "P4" }`); err != nil {
		t.Fatalf("post-recovery update: %v", err)
	}
}

// TestOpenEmptyDirectoryStartsEmptyDurable pins Open's bootstrap path.
func TestOpenEmptyDirectoryStartsEmptyDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := rdfshapes.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumTriples() != 0 {
		t.Errorf("fresh durable DB has %d triples", db.NumTriples())
	}
	if _, err := db.Update(`INSERT DATA { <http://x/a> <http://x/b> <http://x/c> }`); err != nil {
		t.Fatal(err)
	}
	db.Close()
	re, err := rdfshapes.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumTriples() != 1 {
		t.Errorf("reopened DB has %d triples, want 1", re.NumTriples())
	}
}

// TestWithDurabilityRefusesExistingState: seeding over a directory that
// already holds durable state must fail loudly, never silently discard.
func TestWithDurabilityRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	db, err := rdfshapes.Load(durabilitySeed(), rdfshapes.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := rdfshapes.Load(durabilitySeed(), rdfshapes.WithDurability(dir)); !errors.Is(err, wal.ErrExists) {
		t.Fatalf("re-seeding over existing state: %v, want ErrExists", err)
	}
}

// TestCheckpointWithoutDurability pins the typed error.
func TestCheckpointWithoutDurability(t *testing.T) {
	db, err := rdfshapes.Load(durabilitySeed())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Checkpoint(); !errors.Is(err, rdfshapes.ErrNotDurable) {
		t.Fatalf("Checkpoint on non-durable DB: %v, want ErrNotDurable", err)
	}
	if _, ok := db.DurabilityStats(); ok {
		t.Error("DurabilityStats ok on non-durable DB")
	}
}

// TestWALFailurePoisonsUpdatesUntilCheckpoint drives the poisoning
// contract through the facade: a failed fsync refuses the update and all
// later ones (reads keep working), and a successful checkpoint restores
// writability.
func TestWALFailurePoisonsUpdatesUntilCheckpoint(t *testing.T) {
	fs := wal.NewMemFS()
	db, err := rdfshapes.Load(durabilitySeed(),
		rdfshapes.WithDurability("/data"), rdfshapes.WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	before := db.NumTriples()
	fs.FailOn = wal.FailNth(0, "sync", errors.New("io error"))
	if _, err := db.Update(`INSERT DATA { <http://x/a> <http://x/b> <http://x/c> }`); !errors.Is(err, rdfshapes.ErrWALFailed) {
		t.Fatalf("update with failing fsync: %v, want ErrWALFailed", err)
	}
	fs.FailOn = nil
	if db.NumTriples() != before {
		t.Error("refused update mutated the dataset")
	}
	if _, err := db.Update(`INSERT DATA { <http://x/a> <http://x/b> <http://x/c> }`); !errors.Is(err, rdfshapes.ErrWALFailed) {
		t.Fatalf("update while poisoned: %v, want ErrWALFailed", err)
	}
	if ds, _ := db.DurabilityStats(); !ds.Failed {
		t.Error("DurabilityStats.Failed = false while poisoned")
	}
	// reads still serve
	if n, err := db.Count(`SELECT ?s WHERE { ?s <http://x/name> ?n }`); err != nil || n == 0 {
		t.Errorf("read while poisoned: %d, %v", n, err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("recovery checkpoint: %v", err)
	}
	if _, err := db.Update(`INSERT DATA { <http://x/a> <http://x/b> <http://x/c> }`); err != nil {
		t.Fatalf("update after recovery checkpoint: %v", err)
	}
}

// facadeWorkload drives the full seed + update + checkpoint sequence
// over the given filesystem, tolerating failures (the crash point cuts
// it short). It returns the index into durabilityStates() of the last
// state known acknowledged-durable: 0 before the seed completes, 1 once
// Load returned, 1+i after update i was acknowledged.
func facadeWorkload(fs *wal.MemFS) (ackedState int) {
	db, err := rdfshapes.Load(durabilitySeed(),
		rdfshapes.WithDurability("/data"), rdfshapes.WithWALFS(fs))
	if err != nil {
		return 0
	}
	defer db.Close()
	ackedState = 1
	for i, u := range durabilityUpdates() {
		if _, err := db.Update(u.sparql()); err != nil {
			return ackedState
		}
		ackedState = 1 + i + 1
		if i == 2 || i == 5 {
			_, _ = db.Checkpoint() // retryable; the commits are already durable
		}
	}
	return ackedState
}

// TestFacadeCrashMatrix is the acceptance test: for every filesystem
// operation the workload performs, cut power there under each crash
// mode, recover through Open, and require (a) the dataset is exactly a
// prefix of the acknowledged commit sequence, no shorter than what was
// acknowledged, and (b) the recovered statistics match a from-scratch
// recompute. Run with -race.
func TestFacadeCrashMatrix(t *testing.T) {
	clean := wal.NewMemFS()
	if acked := facadeWorkload(clean); acked != 1+len(durabilityUpdates()) {
		t.Fatalf("clean run acknowledged through state %d", acked)
	}
	total := clean.Ops()
	if total < 20 {
		t.Fatalf("workload only exercises %d filesystem operations", total)
	}
	states := durabilityStates()

	step := 1
	if testing.Short() {
		step = 5
	}
	for _, mode := range []wal.CrashMode{wal.CrashSyncedOnly, wal.CrashPartialTail, wal.CrashKeepAll} {
		for k := 0; k < total; k += step {
			label := fmt.Sprintf("crash at op %d/%d, mode %s", k, total, mode)
			fs := wal.NewMemFS()
			fs.StopAfter(k)
			acked := facadeWorkload(fs)
			img := fs.CrashImage(mode)
			db, err := rdfshapes.Open("/data", rdfshapes.WithWALFS(img))
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", label, err)
			}
			got := dbTriples(t, db)
			matched := -1
			for s := len(states) - 1; s >= 0; s-- {
				if setsEqual(got, states[s]) {
					matched = s
					break
				}
			}
			if matched < 0 {
				t.Fatalf("%s: recovered %d triples matching no commit prefix", label, len(got))
			}
			if matched < acked {
				t.Fatalf("%s: recovered state %d but %d was acknowledged durable", label, matched, acked)
			}
			assertStatsOracle(t, db, states[matched], label)
			// recovered DB must accept new commits that survive reopening
			if _, err := db.Update(`INSERT DATA { <http://x/post> <http://x/name> "crash" }`); err != nil {
				t.Fatalf("%s: post-recovery update: %v", label, err)
			}
			db.Close()
			re, err := rdfshapes.Open("/data", rdfshapes.WithWALFS(img))
			if err != nil {
				t.Fatalf("%s: second recovery: %v", label, err)
			}
			if !dbTriples(t, re)[rdf.NewTriple(xiri("post"), xiri("name"), rdf.NewLiteral("crash"))] {
				t.Fatalf("%s: post-recovery commit lost on reopen", label)
			}
			re.Close()
		}
	}
}

func setsEqual(a, b map[rdf.Triple]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for tr := range a {
		if !b[tr] {
			return false
		}
	}
	return true
}

// TestOpenCorruptSnapshotFallsBack corrupts the newest snapshot on disk
// and requires recovery to fall back to the previous generation without
// losing any acknowledged commit.
func TestOpenCorruptSnapshotFallsBack(t *testing.T) {
	fs := wal.NewMemFS()
	db, err := rdfshapes.Load(durabilitySeed(),
		rdfshapes.WithDurability("/data"), rdfshapes.WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	updates := durabilityUpdates()
	for i, u := range updates {
		if _, err := db.Update(u.sparql()); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.Close()
	if err := fs.Corrupt("/data/snap-0000000000000002.snap", -1, 0x80); err != nil {
		t.Fatal(err)
	}
	re, err := rdfshapes.Open("/data", rdfshapes.WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ds, _ := re.DurabilityStats()
	if ds.SnapshotFallbacks != 1 {
		t.Errorf("SnapshotFallbacks = %d, want 1", ds.SnapshotFallbacks)
	}
	states := durabilityStates()
	final := states[len(states)-1]
	if got := dbTriples(t, re); !setsEqual(got, final) {
		t.Errorf("fallback recovery: %d triples, want %d", len(got), len(final))
	}
	assertStatsOracle(t, re, final, "snapshot fallback")
}
