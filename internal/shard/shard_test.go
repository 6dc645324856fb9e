package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rdfshapes/internal/annotator"
	"rdfshapes/internal/gstats"
	"rdfshapes/internal/live"
	"rdfshapes/internal/rdf"
	"rdfshapes/internal/shacl"
	"rdfshapes/internal/store"
)

func iri(local string) rdf.Term { return rdf.NewIRI("http://ex.org/" + local) }

// seedGraph builds a small typed dataset exercising every statistic.
func seedGraph() rdf.Graph {
	typ := rdf.NewIRI(rdf.RDFType)
	var g rdf.Graph
	for i := 0; i < 12; i++ {
		s := iri(fmt.Sprintf("p%d", i))
		g.Append(s, typ, iri("Person"))
		g.Append(s, iri("name"), rdf.NewLiteral(fmt.Sprintf("P%d", i)))
		if i%2 == 0 {
			g.Append(s, iri("knows"), iri(fmt.Sprintf("p%d", (i+1)%12)))
		}
	}
	for i := 0; i < 5; i++ {
		s := iri(fmt.Sprintf("r%d", i))
		g.Append(s, typ, iri("Robot"))
		g.Append(s, iri("serial"), rdf.NewLiteral(fmt.Sprintf("%03d", i)))
	}
	return g
}

// patterns returns one pattern per binding shape, resolved against d
// (unknown terms yield zero IDs, i.e. wildcards — callers pick terms
// that exist).
func testPatterns(d *store.Dict) []store.IDTriple {
	id := func(t rdf.Term) store.ID {
		v, _ := d.Lookup(t)
		return v
	}
	typ := id(rdf.NewIRI(rdf.RDFType))
	return []store.IDTriple{
		{},                                     // (? ? ?)
		{S: id(iri("p3"))},                     // (s ? ?)
		{P: id(iri("name"))},                   // (? p ?)
		{O: id(iri("Person"))},                 // (? ? o)
		{S: id(iri("p4")), P: id(iri("name"))}, // (s p ?)
		{S: id(iri("p4")), O: id(iri("p5"))},   // (s ? o)
		{P: typ, O: id(iri("Robot"))},          // (? p o)
		{S: id(iri("p0")), P: typ, O: id(iri("Person"))}, // (s p o)
	}
}

func collect(scan func(store.IDTriple, func(store.IDTriple) bool), pat store.IDTriple) []store.IDTriple {
	var out []store.IDTriple
	scan(pat, func(t store.IDTriple) bool {
		out = append(out, t)
		return true
	})
	return out
}

func sortedBy(ts []store.IDTriple, pat store.IDTriple) []store.IDTriple {
	out := append([]store.IDTriple(nil), ts...)
	less := store.KeyOrder(pat)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// TestScanFrozenBitIdentical: with empty overlays the group's merged
// key-sorted order is exactly the unsharded store's enumeration order,
// for every pattern shape.
func TestScanFrozenBitIdentical(t *testing.T) {
	st := store.Load(seedGraph())
	for _, n := range []int{1, 2, 4, 7} {
		g, err := New(st, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		v := g.Snapshot()
		for _, pat := range testPatterns(st.Dict()) {
			want := collect(st.Scan, pat)
			got := collect(v.Scan, pat)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d pat=%v: scan mismatch: got %d rows, want %d", n, pat, len(got), len(want))
			}
			if c := v.Count(pat); c != len(want) {
				t.Errorf("n=%d pat=%v: Count = %d, want %d", n, pat, c, len(want))
			}
		}
		if v.Len() != st.Len() {
			t.Errorf("n=%d: Len = %d, want %d", n, v.Len(), st.Len())
		}
	}
}

// TestScanAfterUpdates drives identical random batches through a
// 4-shard group and an unsharded live store and checks that every
// pattern sees the same triple set (the group in key-sorted order) and
// the same exact Count.
func TestScanAfterUpdates(t *testing.T) {
	st := store.Load(seedGraph())
	g, err := New(st, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle := live.Wrap(store.Load(seedGraph()))

	typ := rdf.NewIRI(rdf.RDFType)
	rng := rand.New(rand.NewSource(7))
	randTriple := func() rdf.Triple {
		s := iri(fmt.Sprintf("p%d", rng.Intn(16)))
		switch rng.Intn(4) {
		case 0:
			return rdf.NewTriple(s, typ, iri([]string{"Person", "Robot"}[rng.Intn(2)]))
		case 1:
			return rdf.NewTriple(s, iri("knows"), iri(fmt.Sprintf("p%d", rng.Intn(16))))
		default:
			return rdf.NewTriple(s, iri("name"), rdf.NewLiteral(fmt.Sprintf("V%d", rng.Intn(6))))
		}
	}
	for step := 0; step < 80; step++ {
		var b live.Batch
		for i := rng.Intn(4); i >= 0; i-- {
			if rng.Intn(3) == 0 {
				b.Delete = append(b.Delete, randTriple())
			} else {
				b.Insert = append(b.Insert, randTriple())
			}
		}
		g.Apply(b)
		oracle.Apply(b)
	}

	v := g.Snapshot()
	ov := oracle.Snapshot()
	// The two dictionaries assign different IDs; compare term-level.
	decode := func(d *store.Dict, ts []store.IDTriple) []string {
		out := make([]string, len(ts))
		for i, t := range ts {
			out[i] = d.Term(t.S).String() + " " + d.Term(t.P).String() + " " + d.Term(t.O).String()
		}
		sort.Strings(out)
		return out
	}
	for _, pat := range testPatterns(st.Dict()) {
		got := collect(v.Scan, pat)
		// Group scans must come out key-sorted.
		if !reflect.DeepEqual(got, sortedBy(got, pat)) {
			t.Errorf("pat=%v: group scan not in key order", pat)
		}
		// Translate the pattern to the oracle's dictionary.
		var opat store.IDTriple
		lookupO := func(id store.ID) store.ID {
			if id == 0 {
				return 0
			}
			v, ok := ov.Dict().Lookup(st.Dict().Term(id))
			if !ok {
				return store.ID(1 << 30) // absent term: match nothing
			}
			return v
		}
		opat.S, opat.P, opat.O = lookupO(pat.S), lookupO(pat.P), lookupO(pat.O)
		want := collect(ov.Scan, opat)
		if g, w := decode(v.Dict(), got), decode(ov.Dict(), want); !reflect.DeepEqual(g, w) {
			t.Errorf("pat=%v: set mismatch: got %d rows, want %d", pat, len(g), len(w))
		}
		if c := v.Count(pat); c != len(got) {
			t.Errorf("pat=%v: Count = %d, scan yielded %d", pat, c, len(got))
		}
	}
	if v.Len() != ov.Len() {
		t.Errorf("Len = %d, want %d", v.Len(), ov.Len())
	}
}

// TestScanChunksConcatEqualsScan: for every pattern and chunk budget,
// running the chunks in order enumerates exactly what Scan does —
// including with live overlays and deletion masks in play.
func TestScanChunksConcatEqualsScan(t *testing.T) {
	st := store.Load(seedGraph())
	g, err := New(st, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Overlay: delete some base triples, add new ones.
	g.Apply(live.Batch{
		Delete: []rdf.Triple{
			rdf.NewTriple(iri("p0"), iri("name"), rdf.NewLiteral("P0")),
			rdf.NewTriple(iri("p2"), iri("knows"), iri("p3")),
		},
		Insert: []rdf.Triple{
			rdf.NewTriple(iri("p13"), iri("name"), rdf.NewLiteral("P13")),
			rdf.NewTriple(iri("p13"), rdf.NewIRI(rdf.RDFType), iri("Person")),
			rdf.NewTriple(iri("p1"), iri("knows"), iri("p13")),
		},
	})
	v := g.Snapshot()
	for _, pat := range testPatterns(st.Dict()) {
		want := collect(v.Scan, pat)
		for _, n := range []int{1, 2, 3, 5, 16, 1000} {
			var got []store.IDTriple
			for _, chunk := range v.ScanChunks(pat, n) {
				chunk(func(t store.IDTriple) bool {
					got = append(got, t)
					return true
				})
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("pat=%v n=%d: chunk concat %d rows, scan %d", pat, n, len(got), len(want))
			}
		}
		if len(want) > 0 && v.ScanChunks(pat, 4) == nil {
			t.Errorf("pat=%v: nil chunks despite %d matches", pat, len(want))
		}
	}
}

// exactGlobalsEqual compares the fields the maintainer keeps exact.
func exactGlobalsEqual(t *testing.T, label string, got, want *gstats.Global) {
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
	if len(got.Pred) != len(want.Pred) {
		t.Errorf("%s: len(Pred) = %d, want %d", label, len(got.Pred), len(want.Pred))
	}
	for p, w := range want.Pred {
		if g := got.Pred[p]; g != w {
			t.Errorf("%s: Pred[%s] = %+v, want %+v", label, p, g, w)
		}
	}
	if len(got.ClassInstances) != len(want.ClassInstances) {
		t.Errorf("%s: len(ClassInstances) = %d, want %d", label, len(got.ClassInstances), len(want.ClassInstances))
	}
	for c, w := range want.ClassInstances {
		if g := got.ClassInstances[c]; g != w {
			t.Errorf("%s: ClassInstances[%s] = %d, want %d", label, c, g, w)
		}
	}
}

// shapeStatsEqual compares the exactly-maintained shape statistics
// (sh:count per node shape, property sh:count and
// sh:distinctSubjectCount) of got against the recomputed oracle.
func shapeStatsEqual(t *testing.T, label string, got, oracle *shacl.ShapesGraph) {
	t.Helper()
	for _, want := range oracle.Shapes() {
		g := got.ByClass(want.TargetClass)
		if g == nil {
			t.Errorf("%s: shape for %s missing", label, want.TargetClass)
			continue
		}
		if g.Count != want.Count {
			t.Errorf("%s %s: sh:count = %d, want %d", label, want.TargetClass, g.Count, want.Count)
		}
		for _, wp := range want.Properties {
			gp := g.Property(wp.Path)
			if gp == nil || gp.Stats == nil || wp.Stats == nil {
				continue
			}
			if gp.Stats.Count != wp.Stats.Count {
				t.Errorf("%s %s %s: sh:count = %d, want %d",
					label, want.TargetClass, wp.Path, gp.Stats.Count, wp.Stats.Count)
			}
			if gp.Stats.DistinctSubjectCount != wp.Stats.DistinctSubjectCount {
				t.Errorf("%s %s %s: sh:distinctSubjectCount = %d, want %d",
					label, want.TargetClass, wp.Path, gp.Stats.DistinctSubjectCount, wp.Stats.DistinctSubjectCount)
			}
		}
	}
}

// TestPerShardStatsOracle drives a random update stream through the
// group and cross-checks every shard's maintained statistics against a
// from-scratch recompute on that shard's compacted base — the exactness
// the pruning rule depends on.
func TestPerShardStatsOracle(t *testing.T) {
	st := store.Load(seedGraph())
	sg, err := shacl.InferShapes(st)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(st, 4, sg)
	if err != nil {
		t.Fatal(err)
	}

	typ := rdf.NewIRI(rdf.RDFType)
	rng := rand.New(rand.NewSource(11))
	randTriple := func() rdf.Triple {
		s := iri(fmt.Sprintf("p%d", rng.Intn(16)))
		switch rng.Intn(4) {
		case 0:
			return rdf.NewTriple(s, typ, iri([]string{"Person", "Robot"}[rng.Intn(2)]))
		case 1:
			return rdf.NewTriple(s, iri("knows"), iri(fmt.Sprintf("p%d", rng.Intn(16))))
		default:
			return rdf.NewTriple(s, iri("name"), rdf.NewLiteral(fmt.Sprintf("V%d", rng.Intn(6))))
		}
	}
	for step := 0; step < 100; step++ {
		var b live.Batch
		for i := rng.Intn(4); i >= 0; i-- {
			if rng.Intn(3) == 0 {
				b.Delete = append(b.Delete, randTriple())
			} else {
				b.Insert = append(b.Insert, randTriple())
			}
		}
		g.Apply(b)
	}

	maintained := make([]live.Stats, g.N())
	for i := range maintained {
		maintained[i] = g.ShardStats(i)
	}
	bases, err := g.Refresh() // compacts each shard; bases[i] is shard i's full content
	if err != nil {
		t.Fatal(err)
	}
	for i, base := range bases {
		label := fmt.Sprintf("shard %d", i)
		exactGlobalsEqual(t, label, maintained[i].Global, gstats.Compute(base))
		oracle := maintained[i].Shapes.Clone()
		if err := annotator.Annotate(oracle, base); err != nil {
			t.Fatal(err)
		}
		shapeStatsEqual(t, label, maintained[i].Shapes, oracle)
	}
}

// TestWholeMaintainerOnGroup: a whole-dataset maintainer fed the
// group's combined CommitInfos stays exact against a recompute on the
// merged store — the property that keeps sharded planning statistics
// (and therefore plans and row order) identical to unsharded.
func TestWholeMaintainerOnGroup(t *testing.T) {
	st := store.Load(seedGraph())
	sg, err := shacl.InferShapes(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := annotator.Annotate(sg, st); err != nil {
		t.Fatal(err)
	}
	g, err := New(st, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := live.NewMaintainer(live.Stats{Global: gstats.Compute(st), Shapes: sg}, 0, nil)

	typ := rdf.NewIRI(rdf.RDFType)
	rng := rand.New(rand.NewSource(13))
	randTriple := func() rdf.Triple {
		s := iri(fmt.Sprintf("p%d", rng.Intn(16)))
		switch rng.Intn(4) {
		case 0:
			return rdf.NewTriple(s, typ, iri([]string{"Person", "Robot"}[rng.Intn(2)]))
		case 1:
			return rdf.NewTriple(s, iri("knows"), iri(fmt.Sprintf("p%d", rng.Intn(16))))
		default:
			return rdf.NewTriple(s, iri("name"), rdf.NewLiteral(fmt.Sprintf("V%d", rng.Intn(6))))
		}
	}
	for step := 0; step < 100; step++ {
		var b live.Batch
		for i := rng.Intn(4); i >= 0; i-- {
			if rng.Intn(3) == 0 {
				b.Delete = append(b.Delete, randTriple())
			} else {
				b.Insert = append(b.Insert, randTriple())
			}
		}
		m.Apply(g.Apply(b))
	}

	merged, err := g.Merged()
	if err != nil {
		t.Fatal(err)
	}
	cur := m.Current()
	exactGlobalsEqual(t, "whole", cur.Global, gstats.Compute(merged))
	oracle := cur.Shapes.Clone()
	if err := annotator.Annotate(oracle, merged); err != nil {
		t.Fatal(err)
	}
	shapeStatsEqual(t, "whole", cur.Shapes, oracle)
}

// TestPruningCounters: subject-bound scans prune every non-owner shard;
// scans for a predicate or class some shards provably lack prune by
// statistics; pruning never changes results.
func TestPruningCounters(t *testing.T) {
	// One subject carries a unique predicate and class, so their triples
	// land in exactly one shard and the other shards' statistics prove
	// the patterns empty there.
	g0 := seedGraph()
	g0.Append(iri("solo"), rdf.NewIRI(rdf.RDFType), iri("Unicorn"))
	g0.Append(iri("solo"), iri("rarity"), rdf.NewLiteral("high"))
	st := store.Load(g0)
	sg, err := shacl.InferShapes(st)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(st, 4, sg)
	if err != nil {
		t.Fatal(err)
	}
	v := g.Snapshot()
	id := func(t rdf.Term) store.ID {
		v, _ := st.Dict().Lookup(t)
		return v
	}

	own0, stats0 := g.Pruned()
	got := collect(v.Scan, store.IDTriple{S: id(iri("solo"))})
	if len(got) != 2 {
		t.Fatalf("subject scan: %d rows, want 2", len(got))
	}
	own1, _ := g.Pruned()
	if own1-own0 != 3 {
		t.Errorf("ownership pruned delta = %d, want 3", own1-own0)
	}

	got = collect(v.Scan, store.IDTriple{P: id(iri("rarity"))})
	if len(got) != 1 {
		t.Fatalf("rarity scan: %d rows, want 1", len(got))
	}
	_, stats1 := g.Pruned()
	if stats1-stats0 != 3 {
		t.Errorf("stats pruned delta = %d, want 3 (predicate in one shard only)", stats1-stats0)
	}

	typ, _ := st.Dict().Lookup(rdf.NewIRI(rdf.RDFType))
	got = collect(v.Scan, store.IDTriple{P: typ, O: id(iri("Unicorn"))})
	if len(got) != 1 {
		t.Fatalf("class scan: %d rows, want 1", len(got))
	}
	_, stats2 := g.Pruned()
	if stats2-stats1 != 3 {
		t.Errorf("stats pruned delta = %d, want 3 (class in one shard only)", stats2-stats1)
	}

	rows := g.RowsScanned()
	var total int64
	for _, r := range rows {
		total += r
	}
	if total == 0 {
		t.Error("RowsScanned all zero after scans")
	}
}

// TestSingleRunScanDirect pins the single-run path of View.Scan — what a
// subject-bound nested-loop probe takes: it allocates nothing, charges
// every row handed to fn (the one that stops the scan included) to the
// owning shard alone, and counts the other shards as ownership-pruned.
func TestSingleRunScanDirect(t *testing.T) {
	st := store.Load(seedGraph())
	g, err := New(st, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := g.Snapshot()
	p4, ok := st.Dict().Lookup(iri("p4"))
	if !ok {
		t.Fatal("p4 not in the dictionary")
	}
	pat := store.IDTriple{S: p4}
	want := st.Count(pat) // type, name, knows
	total := func() (n int64) {
		for _, r := range g.RowsScanned() {
			n += r
		}
		return n
	}

	rows0, own0 := total(), first(g.Pruned())
	if got := len(collect(v.Scan, pat)); got != want {
		t.Fatalf("full scan: %d rows, want %d", got, want)
	}
	v.Scan(pat, func(store.IDTriple) bool { return false })
	if d := total() - rows0; d != int64(want)+1 {
		t.Errorf("RowsScanned moved by %d, want %d (a full scan and one stopped at its first row)", d, want+1)
	}
	if d := first(g.Pruned()) - own0; d != 6 {
		t.Errorf("ownership pruned moved by %d, want 6 (3 shards, twice)", d)
	}

	n := 0
	count := func(store.IDTriple) bool { n++; return true }
	if allocs := testing.AllocsPerRun(100, func() { v.Scan(pat, count) }); allocs != 0 {
		t.Errorf("subject-bound scan allocates %v objects, want 0", allocs)
	}
}

func first(a, _ int64) int64 { return a }
