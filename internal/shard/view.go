package shard

import (
	"sort"

	"rdfshapes/internal/gstats"
	"rdfshapes/internal/live"
	"rdfshapes/internal/rdf"
	"rdfshapes/internal/store"
)

// View is one consistent cross-shard version of the dataset: every
// shard's pinned snapshot paired with the statistics maintained for
// exactly that snapshot. It satisfies engine.Source, engine.
// ChunkedSource, shacl.Source, and live.View, so queries, validation,
// and the whole-dataset statistics maintainer all run against it
// unchanged.
//
// Canonical enumeration order: Scan yields matches fully key-sorted by
// store.KeyOrder(pat) — per-shard sorted runs (base minus deletions,
// plus overlay additions) merged into one globally ordered stream. With
// empty overlays this is exactly the order an unsharded store
// enumerates, which is what makes sharded execution bit-identical to
// unsharded on compacted data; with live overlays the order is still
// deterministic, just sorted rather than base-then-additions (see
// docs/SHARDING.md).
type View struct {
	g     *Group
	snaps []*live.Snapshot
	stats []live.Stats // empty on commit-info views: disables stats pruning
}

// Dict returns the shared term dictionary.
func (v *View) Dict() *store.Dict { return v.g.dict }

// Len returns the merged view's triple count (shards are disjoint).
func (v *View) Len() int {
	n := 0
	for _, s := range v.snaps {
		n += s.Len()
	}
	return n
}

// Count returns the number of matches of pat across all shards — exact,
// because shards partition the data.
func (v *View) Count(pat store.IDTriple) int {
	if pat.S != 0 {
		return v.snaps[v.g.owner(pat.S)].Count(pat)
	}
	n := 0
	for _, s := range v.snaps {
		n += s.Count(pat)
	}
	return n
}

// Contains reports whether the fully bound triple is in the view; only
// the subject's hash owner can hold it.
func (v *View) Contains(t store.IDTriple) bool {
	return v.snaps[v.g.owner(t.S)].Contains(t)
}

// TypeID returns the dictionary ID of rdf:type, or 0 when no term in
// the dataset uses it.
func (v *View) TypeID() store.ID {
	if id, ok := v.g.dict.Lookup(rdf.NewIRI(rdf.RDFType)); ok {
		return id
	}
	return 0
}

// ShardStats returns the per-shard statistics pinned by this view
// (empty for commit-info views).
func (v *View) ShardStats() []live.Stats { return v.stats }

// relevant selects the shards that can contribute matches of pat and
// counts the skipped ones: a bound subject routes to its hash owner
// alone (ownership pruning — fires on every inner join probe), and for
// subject-unbound patterns a shard whose exact statistics prove the
// predicate, class, or whole shard empty is skipped (stats pruning, the
// Odyssey-style source selection).
func (v *View) relevant(pat store.IDTriple) []int {
	n := len(v.snaps)
	if pat.S != 0 {
		return []int{v.subjectOwner(pat.S)}
	}
	idxs := make([]int, 0, n)
	var predIRI, classIRI string
	if len(v.stats) > 0 && pat.P != 0 {
		dict := v.g.dict
		predIRI = dict.Term(pat.P).Value
		if pat.O != 0 && pat.P == v.TypeID() {
			classIRI = dict.Term(pat.O).Value
		}
	}
	var pruned int64
	for i := range v.snaps {
		var st *gstats.Global
		if i < len(v.stats) {
			st = v.stats[i].Global
		}
		switch {
		case st == nil:
			idxs = append(idxs, i)
		case st.Triples == 0,
			classIRI != "" && st.ClassInstances[classIRI] == 0,
			predIRI != "" && st.Pred[predIRI].Count == 0:
			pruned++
		default:
			idxs = append(idxs, i)
		}
	}
	if pruned > 0 {
		v.g.prunedStats.Add(pruned)
	}
	return idxs
}

// subjectOwner returns the one shard that can hold triples of subject s,
// charging the others to the ownership-pruning counter.
func (v *View) subjectOwner(s store.ID) int {
	if n := len(v.snaps); n > 1 {
		v.g.prunedOwnership.Add(int64(n - 1))
	}
	return v.g.owner(s)
}

// cursor walks one sorted run (a base or overlay-additions range of one
// shard), skipping rows masked by the shard's deletion fragment.
type cursor struct {
	rows  []store.IDTriple
	del   *store.Fragment
	shard int
	pos   int
}

// skipDeleted advances the cursor past deletion-masked rows, charging
// them to the shard's scanned-rows counter.
func (c *cursor) skipDeleted(counts []int64) {
	if c.del == nil {
		return
	}
	for c.pos < len(c.rows) && c.del.Contains(c.rows[c.pos]) {
		counts[c.shard]++
		c.pos++
	}
}

// cursors appends the sorted runs of pat over the relevant shards to cs.
// A subject-bound pattern — every inner nested-loop probe — has at most
// two, its owner's, so a caller's two-element buffer keeps the probe off
// the heap.
func (v *View) cursors(pat store.IDTriple, cs []cursor) []cursor {
	if pat.S != 0 {
		return v.shardCursors(v.subjectOwner(pat.S), pat, cs)
	}
	for _, i := range v.relevant(pat) {
		cs = v.shardCursors(i, pat, cs)
	}
	return cs
}

// shardCursors appends shard i's non-empty runs of pat to cs.
func (v *View) shardCursors(i int, pat store.IDTriple, cs []cursor) []cursor {
	base, added, del := v.snaps[i].Ranges(pat)
	if len(base) > 0 {
		cs = append(cs, cursor{rows: base, del: del, shard: i})
	}
	if len(added) > 0 {
		cs = append(cs, cursor{rows: added, shard: i})
	}
	return cs
}

// LeadRuns returns the view's matches of pat as lead-ordered sorted runs
// for the engine's merge-join path: each relevant shard contributes its
// snapshot's runs (base with deletion mask, overlay additions). Shards
// partition triples, so the runs are pairwise disjoint and merging them
// by store.LeadOrder(pat, lead) yields the same globally ordered stream
// an unsharded snapshot would. Ownership/stats pruning applies as in
// Scan; rows consumed on this path are charged to the engine's Ops
// budget rather than the per-shard scanned-rows counters (the engine
// owns the cursoring, so the view never sees individual rows).
func (v *View) LeadRuns(pat store.IDTriple, lead int) ([]store.SortedRun, bool) {
	if !store.LeadOrderAvailable(pat, lead) {
		return nil, false
	}
	var runs []store.SortedRun
	for _, i := range v.relevant(pat) {
		rs, ok := v.snaps[i].LeadRuns(pat, lead)
		if !ok {
			return nil, false
		}
		runs = append(runs, rs...)
	}
	return runs, true
}

// merge streams the union of the cursors' visible rows to fn in
// less-order. Runs are disjoint (shards partition triples; base and
// additions within a shard are disjoint by the snapshot invariants), so
// the full three-component key comparison never ties and the merge is
// deterministic. Cursor counts land in counts by shard.
func merge(cs []cursor, counts []int64, less func(a, b store.IDTriple) bool, fn func(store.IDTriple) bool) {
	active := cs[:0]
	for i := range cs {
		cs[i].skipDeleted(counts)
		if cs[i].pos < len(cs[i].rows) {
			active = append(active, cs[i])
		}
	}
	for len(active) > 0 {
		m := 0
		for i := 1; i < len(active); i++ {
			if less(active[i].rows[active[i].pos], active[m].rows[active[m].pos]) {
				m = i
			}
		}
		t := active[m].rows[active[m].pos]
		counts[active[m].shard]++
		active[m].pos++
		active[m].skipDeleted(counts)
		if active[m].pos >= len(active[m].rows) {
			active = append(active[:m], active[m+1:]...)
		}
		if !fn(t) {
			return
		}
	}
}

// flush folds per-scan row counts into the group's cumulative per-shard
// counters.
func (v *View) flush(counts []int64) {
	for i, n := range counts {
		if n != 0 {
			v.g.rows[i].Add(n)
		}
	}
}

// Scan calls fn for every match of pat across the relevant shards, in
// the canonical key-sorted order. fn returning false stops the scan.
func (v *View) Scan(pat store.IDTriple, fn func(store.IDTriple) bool) {
	var buf [2]cursor
	cs := v.cursors(pat, buf[:0])
	if len(cs) == 0 {
		return
	}
	if len(cs) == 1 && cs[0].del == nil {
		// One unmasked run is already the merged stream.
		n := 0
		for _, t := range cs[0].rows {
			n++
			if !fn(t) {
				break
			}
		}
		v.g.rows[cs[0].shard].Add(int64(n))
		return
	}
	counts := make([]int64, len(v.snaps))
	defer v.flush(counts)
	merge(cs, counts, store.KeyOrder(pat), fn)
}

// ScanChunks splits the canonical merged stream into at most n
// contiguous chunks for morsel-parallel execution — the coordinator's
// per-shard scans ride the engine's bounded worker pool. The largest
// run donates pivot keys at equidistant positions; every other run is
// split at those keys by binary search, so chunk i merges exactly the
// rows in [pivot_i, pivot_i+1) of every run and running the chunks in
// order enumerates exactly what Scan would. Returns nil only when no
// shard has matching rows.
func (v *View) ScanChunks(pat store.IDTriple, n int) []func(fn func(store.IDTriple) bool) {
	cs := v.cursors(pat, nil)
	if len(cs) == 0 {
		return nil
	}
	less := store.KeyOrder(pat)
	largest := 0
	for i := range cs {
		if len(cs[i].rows) > len(cs[largest].rows) {
			largest = i
		}
	}
	if n < 1 {
		n = 1
	}
	if n > len(cs[largest].rows) {
		n = len(cs[largest].rows)
	}
	bounds := make([][]int, len(cs))
	for j := range cs {
		bounds[j] = make([]int, n+1)
		bounds[j][n] = len(cs[j].rows)
	}
	L := cs[largest].rows
	for k := 1; k < n; k++ {
		pivot := L[len(L)*k/n]
		for j := range cs {
			rows := cs[j].rows
			bounds[j][k] = sort.Search(len(rows), func(x int) bool {
				return !less(rows[x], pivot)
			})
		}
	}
	chunks := make([]func(fn func(store.IDTriple) bool), 0, n)
	for k := 0; k < n; k++ {
		var sub []cursor
		for j := range cs {
			lo, hi := bounds[j][k], bounds[j][k+1]
			if lo < hi {
				sub = append(sub, cursor{rows: cs[j].rows[lo:hi], del: cs[j].del, shard: cs[j].shard})
			}
		}
		if len(sub) == 0 {
			continue
		}
		part := sub
		chunks = append(chunks, func(fn func(store.IDTriple) bool) {
			counts := make([]int64, len(v.snaps))
			defer v.flush(counts)
			merge(part, counts, less, fn)
		})
	}
	return chunks
}
