// Physical-plan annotation: choosing merge join vs nested loop per join
// step, the paper's estimates cashing in for a second time. The greedy
// join ORDER (Algorithm 1) minimizes estimated intermediate sizes; with
// the order fixed, the same estimates decide whether the leading join
// steps run as a multi-way sort-merge join — worthwhile when re-scanning
// each input once in sorted order costs less than index-probing it once
// per prefix binding.

package core

import (
	"rdfshapes/internal/sparql"
	"rdfshapes/internal/store"
)

// OrderProbe reports whether the execution source can enumerate tp in an
// ordering keyed on variable v (the engine's OrderedSource capability
// for the pattern's bound shape). Annotation is planner-side and must
// not touch data, so the capability check is injected.
type OrderProbe func(tp sparql.TriplePattern, v string) bool

// AlgoMerge marks a step executed as part of the sort-merge prefix.
// Steps without an Algo run as index nested-loop joins, the default.
const AlgoMerge = "merge"

// LeadAvailableProbe is the OrderProbe for every source backed by the
// store's four orderings (frozen store, live snapshot, shard view):
// availability depends only on which positions of the pattern are bound,
// so constants are marked with a placeholder ID and the shape is checked
// against store.LeadOrderAvailable.
func LeadAvailableProbe(tp sparql.TriplePattern, v string) bool {
	var pat store.IDTriple
	lead := -1
	mark := func(pt sparql.PatternTerm, pos int, dst *store.ID) {
		if pt.IsVar() {
			if pt.Var == v {
				lead = pos
			}
			return
		}
		*dst = 1
	}
	mark(tp.S, store.LeadS, &pat.S)
	mark(tp.P, store.LeadP, &pat.P)
	mark(tp.O, store.LeadO, &pat.O)
	if lead < 0 {
		return false
	}
	return store.LeadOrderAvailable(pat, lead)
}

// probePenalty weights one nested-loop index probe against one
// nested-loop row visit in the cost comparison. A probe on the frozen
// store is two offset-table loads that bound the leading term's run,
// plus a search of the remaining bound terms inside that run, while a
// visit is a sequential advance plus slot binding. The weight of 4 was
// set when a probe was a binary search over the full index and has not
// been re-derived for the offset-table probe; it is due re-measurement
// against a merge pop (ROADMAP item 3a).
const probePenalty = 4

// popCost is the cost of one merge cursor pop relative to one
// nested-loop row visit. The merge path is batch-at-a-time and
// decode-free — a pop is a bounds check and a comparison on rows it
// streams in key order, with no per-row binding until a block actually
// aligns — so it runs nearly an order of magnitude cheaper than the
// nested-loop scan body. 1/8 is measured-conservative: low enough that
// star queries with large side legs still select merge, high enough
// that a selective nested-loop plan (tiny join estimates against big
// legs) stays nested-loop.
const popCost = 0.125

// LegRows reports how many index rows the source would scan to
// enumerate tp in an ordering keyed on v — the exact merge-leg input
// size (a range length, not an estimate). ok is false when the source
// cannot produce that ordering.
type LegRows func(tp sparql.TriplePattern, v string) (float64, bool)

// legRowsSource is the capability SourceLegRows needs, satisfied
// structurally by *store.Store, *live.Snapshot, and *shard.View (the
// engine's OrderedSource implementations).
type legRowsSource interface {
	Dict() *store.Dict
	LeadRuns(pat store.IDTriple, lead int) ([]store.SortedRun, bool)
}

// SourceLegRows builds a LegRows measuring exact leg sizes against src,
// or nil when src cannot enumerate lead-ordered runs. Constants absent
// from the dictionary yield zero rows (the pattern matches nothing).
func SourceLegRows(src any) LegRows {
	os, ok := src.(legRowsSource)
	if !ok {
		return nil
	}
	return func(tp sparql.TriplePattern, v string) (float64, bool) {
		var pat store.IDTriple
		lead := -1
		missing := false
		mark := func(pt sparql.PatternTerm, pos int, dst *store.ID) {
			if pt.IsVar() {
				if pt.Var == v {
					lead = pos
				}
				return
			}
			id, found := os.Dict().Lookup(pt.Term)
			if !found {
				missing = true
				return
			}
			*dst = id
		}
		mark(tp.S, store.LeadS, &pat.S)
		mark(tp.P, store.LeadP, &pat.P)
		mark(tp.O, store.LeadO, &pat.O)
		if lead < 0 {
			return 0, false
		}
		if missing {
			return 0, true
		}
		runs, ok := os.LeadRuns(pat, lead)
		if !ok {
			return 0, false
		}
		n := 0
		for _, r := range runs {
			n += len(r.Rows)
		}
		return float64(n), true
	}
}

// MergePrefix returns the longest eligible sort-merge prefix of steps:
// the shared merge variable and the number of leading steps that can
// merge on it. width is 0 when no prefix of length >= 2 is eligible.
// Eligibility mirrors the engine's own validation (engine.newMergeJoin):
// every prefix step contains the merge variable exactly once and no
// other repeated variable, prefix steps pairwise share no variable
// besides the merge variable, and probe accepts every (pattern, var)
// combination. Cost is not consulted — callers that want the cost-based
// decision use AnnotatePhysical; tests use MergePrefix to force the
// merge path regardless of estimates.
func MergePrefix(steps []Step, probe OrderProbe) (v string, width int) {
	if len(steps) < 2 {
		return "", 0
	}
	best := ""
	bestWidth := 0
	for _, j := range sparql.Joins(steps[0].Pattern, steps[1].Pattern) {
		w := eligibleWidth(steps, j.Var, probe)
		if w > bestWidth || (w == bestWidth && w > 0 && j.Var < best) {
			best, bestWidth = j.Var, w
		}
	}
	return best, bestWidth
}

// eligibleWidth returns the longest prefix of steps that can merge on v
// (0 when shorter than 2).
func eligibleWidth(steps []Step, v string, probe OrderProbe) int {
	w := 0
	for i, s := range steps {
		if !patternEligible(s.Pattern, v) || !probe(s.Pattern, v) {
			break
		}
		shared := false
		for p := 0; p < i; p++ {
			for _, j := range sparql.Joins(steps[p].Pattern, s.Pattern) {
				if j.Var != v {
					shared = true
				}
			}
		}
		if shared {
			break
		}
		w = i + 1
	}
	if w < 2 {
		return 0
	}
	return w
}

// patternEligible reports whether tp contains v exactly once and no
// other variable twice — the shape whose block cross-product needs no
// equality checks.
func patternEligible(tp sparql.TriplePattern, v string) bool {
	var vars []string
	for _, pt := range []sparql.PatternTerm{tp.S, tp.P, tp.O} {
		if pt.IsVar() {
			vars = append(vars, pt.Var)
		}
	}
	n := 0
	for i, a := range vars {
		if a == v {
			n++
		}
		for j := i + 1; j < len(vars); j++ {
			if vars[j] == a {
				return false
			}
		}
	}
	return n == 1
}

// AnnotatePhysical decides, per join step, whether the plan's leading
// steps run as a multi-way sort-merge join, and records the decision on
// the plan (Step.Algo, Plan.MergeVar/MergeWidth — rendered in the plan
// string and consumed by the engine via Options.MergeWidth/MergeVar).
//
// For each eligible prefix width k on merge variable v, the two
// algorithms are priced in nested-loop row-visit units:
//
//	nested loop ≈ Σ_{i=1..k-1} (E⋈_i + probePenalty·E⋈_{i-1})   rows visited + probes
//	merge       ≈ Σ_{i=1..k-1} popCost·rows_i                   one sorted pass per leg
//
// (Leg 0 is enumerated by both and cancels conservatively.) The
// nested-loop side comes from the paper's join estimates; the merge
// side needs no estimate at all when legRows is non-nil — a leg's input
// is a contiguous index range whose length the source reports exactly.
// This split matters: the shape-constrained per-step Card can be
// orders of magnitude below the full range a merge leg must scan (a
// star over `?x name ?n` touches every name triple, not just the
// department names the estimate predicts), and pricing legs by Card
// selects merge exactly where it loses. With legRows nil (tests,
// sources without range counting) the estimate is the fallback.
//
// The largest k with positive benefit wins; no positive k leaves the
// plan fully nested-loop. The decision is advisory: the engine
// re-validates eligibility at execution time and falls back silently,
// so a stale or wrong annotation can cost performance but never
// correctness.
func AnnotatePhysical(p *Plan, probe OrderProbe, legRows LegRows) {
	p.MergeVar, p.MergeWidth = "", 0
	for i := range p.Steps {
		p.Steps[i].Algo = ""
	}
	v, maxW := MergePrefix(p.Steps, probe)
	if maxW < 2 {
		return
	}
	costMemo := make([]float64, len(p.Steps))
	for i := range costMemo {
		costMemo[i] = -1
	}
	mergeCost := func(i int) float64 {
		if costMemo[i] >= 0 {
			return costMemo[i]
		}
		c := p.Steps[i].TP.Card
		if legRows != nil {
			if rows, ok := legRows(p.Steps[i].Pattern, v); ok {
				c = popCost * rows
			}
		}
		costMemo[i] = c
		return c
	}
	bestW := 0
	bestBenefit := 0.0
	for k := 2; k <= maxW; k++ {
		benefit := 0.0
		for i := 1; i < k; i++ {
			nl := p.Steps[i].JoinEstimate + probePenalty*p.Steps[i-1].JoinEstimate
			benefit += nl - mergeCost(i)
		}
		if benefit > bestBenefit {
			bestW, bestBenefit = k, benefit
		}
	}
	if bestW < 2 {
		return
	}
	p.MergeVar, p.MergeWidth = v, bestW
	for i := 0; i < bestW; i++ {
		p.Steps[i].Algo = AlgoMerge
	}
}
