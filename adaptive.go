package rdfshapes

// Adaptive re-optimization: a per-template plan cache whose entries are
// invalidated by their own observed estimation error.
//
// Real SPARQL traffic is dominated by a small number of templated query
// shapes, so the greedy optimizer's work — and its statistics inputs —
// can be amortized per template: the first instance of a template is
// optimized normally and its join order and per-step estimates are
// cached; later instances reuse the order without re-running the
// optimizer. The cached estimates are deliberately frozen at plan time,
// which makes them a drift detector: every complete execution's final
// estimated-vs-actual q-error (the paper's Section 7 metric, computed by
// internal/obsv) is folded into a rolling window per template, and when
// the window's median exceeds the WithAdaptiveReplan threshold the entry
// is invalidated — the next instance re-plans against the *current*
// maintained statistics, restoring estimate quality without waiting for
// the global drift re-annotation (WithDriftThreshold) to fire.
//
// Correctness never depends on the cache: any join order over the same
// pattern set produces the same rows, so a template-key collision or a
// stale order only costs performance, never answers.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"rdfshapes/internal/cardinality"
	"rdfshapes/internal/core"
	"rdfshapes/internal/obsv"
	"rdfshapes/internal/rdf"
	"rdfshapes/internal/sparql"
)

// Defaults of the adaptive replan layer; see WithAdaptiveReplan.
const (
	// DefaultAdaptiveWindow is the number of recent complete executions
	// whose q-errors form a template's rolling window.
	DefaultAdaptiveWindow = 8
	// DefaultAdaptiveCooldown is the minimum time between two replans of
	// the same template, so one burst of drift cannot thrash the cache.
	DefaultAdaptiveCooldown = time.Second
	// adaptiveMinSamples is the smallest window that may trigger a
	// replan; a single outlier execution is never enough.
	adaptiveMinSamples = 3
	// templateLabelMax caps the template text used as a metric label.
	templateLabelMax = 200
	// MaxAdaptiveTemplates caps the number of templates tracked at once,
	// and with it the plan cache's heap and the {template} metric series:
	// a client cycling query shapes cannot grow either without bound.
	// Templates first seen past the cap are planned uncached and counted
	// in DB.AdaptiveOverflow. Real logs hold tens of templates; the cap
	// is there for the client that is not a real log.
	MaxAdaptiveTemplates = 1024
)

// WithAdaptiveReplan enables adaptive re-optimization: query plans are
// cached per normalized BGP template (constants masked, variables
// canonicalized), each template's observed q-error is tracked over a
// rolling window, and when the window median exceeds threshold the
// cached plan is invalidated and re-planned against current statistics.
// threshold must be > 1 (q-error is ≥ 1 by construction); values ≤ 1
// leave the feature disabled. At most MaxAdaptiveTemplates templates are
// tracked. Progress is observable as rdfshapes_adaptive_replans_total and
// rdfshapes_template_qerror in /metrics, and programmatically via
// DB.AdaptiveTemplates.
func WithAdaptiveReplan(threshold float64) Option {
	return func(c *config) { c.adaptiveAt = threshold }
}

// TemplateStat is one template's adaptive-replan accounting, a snapshot
// returned by DB.AdaptiveTemplates.
type TemplateStat struct {
	// Template is the normalized template text (variables canonicalized
	// to ?v0, ?v1, ...; non-structural constants masked as $), the
	// template's unique metric label: past the label cap it is cut and
	// suffixed with a hash of the full text.
	Template string
	// QError is the rolling window's median observed q-error; 0 until
	// the first complete execution after (re)planning.
	QError float64
	// Observations counts complete executions currently in the window.
	Observations int
	// Hits and Misses count plan-cache lookups.
	Hits, Misses int64
	// Replans counts threshold-triggered invalidations of this template.
	Replans int64
	// Cached reports whether a plan is currently cached.
	Cached bool
}

// adaptive is the DB's adaptive re-optimization state.
type adaptive struct {
	threshold float64
	window    int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests

	total    atomic.Int64 // replans across all templates
	overflow atomic.Int64 // plans served uncached because entries was full

	mu      sync.Mutex
	entries map[string]*templateEntry
}

// templateEntry is one template's cached plan and rolling q-error state.
type templateEntry struct {
	label string // the metric label value; see templateKey

	plan *cachedPlan // nil: next instance re-plans

	// qerrs is the rolling window of final q-errors of complete
	// executions, newest last, cleared on replan.
	qerrs []float64

	hits, misses int64
	replans      int64
	lastReplan   time.Time
}

// cachedPlan is a join order with its estimates frozen at plan time. The
// steps keep the first instance's patterns; reuse rebinds each step's
// pattern from the incoming query via order, so instances differing only
// in constants share the order and the estimates.
type cachedPlan struct {
	steps     []core.Step
	order     []int // order[i] = position in q.Patterns executed at step i
	cost      float64
	estimator string
}

func newAdaptive(threshold float64) *adaptive {
	return &adaptive{
		threshold: threshold,
		window:    DefaultAdaptiveWindow,
		cooldown:  DefaultAdaptiveCooldown,
		now:       time.Now,
		entries:   map[string]*templateEntry{},
	}
}

// templateKey normalizes a BGP into its template identity: patterns in
// textual (parse-index) order, variables renamed ?v0, ?v1, ... in first-
// use order, predicates and rdf:type objects kept (they are structural —
// they select the shape statistics), every other constant masked as $.
// Two queries that differ only in parameter constants or variable names
// therefore share a key. The second return value is the metric label:
// the key itself, or, past templateLabelMax bytes, its prefix cut on a
// rune boundary plus a hash of the whole key, so two templates sharing
// a long prefix still get distinct labels.
func templateKey(patterns []sparql.TriplePattern) (string, string) {
	ordered := append([]sparql.TriplePattern(nil), patterns...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Index < ordered[j].Index })
	vars := map[string]string{}
	canon := func(pt sparql.PatternTerm, structural bool) string {
		if pt.IsVar() {
			c, ok := vars[pt.Var]
			if !ok {
				c = "?v" + strconv.Itoa(len(vars))
				vars[pt.Var] = c
			}
			return c
		}
		if structural {
			return pt.Term.String()
		}
		return "$"
	}
	var b strings.Builder
	for i, tp := range ordered {
		if i > 0 {
			b.WriteByte(' ')
		}
		isType := !tp.P.IsVar() && tp.P.Term.IsIRI() && tp.P.Term.Value == rdf.RDFType
		b.WriteString(canon(tp.S, false))
		b.WriteByte(' ')
		b.WriteString(canon(tp.P, true))
		b.WriteByte(' ')
		b.WriteString(canon(tp.O, isType))
		b.WriteString(" .")
	}
	key := b.String()
	if len(key) <= templateLabelMax {
		return key, key
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	suffix := fmt.Sprintf("#%016x", h.Sum64())
	cut := templateLabelMax - len(suffix)
	for !utf8.RuneStart(key[cut]) {
		cut--
	}
	return key, key[:cut] + suffix
}

// templateKeyFromSteps recovers the template key of an executed plan:
// the steps' patterns carry their parse indexes, so sorting them
// reconstructs the textual order templateKey normalizes from.
func templateKeyFromSteps(steps []core.Step) (string, string) {
	patterns := make([]sparql.TriplePattern, len(steps))
	for i, s := range steps {
		patterns[i] = s.Pattern
	}
	return templateKey(patterns)
}

// plan serves q's join order from the template cache, optimizing (and
// caching) on miss. The returned plan always carries q's own patterns;
// on a hit the estimates are the cached ones, frozen at plan time.
func (a *adaptive) plan(q *sparql.Query, est cardinality.Estimator) *core.Plan {
	key, label := templateKey(q.Patterns)
	a.mu.Lock()
	e := a.entries[key]
	if e == nil {
		if len(a.entries) >= MaxAdaptiveTemplates {
			a.mu.Unlock()
			a.overflow.Add(1)
			return core.Optimize(q, est)
		}
		e = &templateEntry{label: label}
		a.entries[key] = e
	}
	if cp := e.plan; cp != nil && len(cp.order) == len(q.Patterns) && cp.estimator == est.Name() {
		e.hits++
		a.mu.Unlock()
		steps := make([]core.Step, len(cp.steps))
		copy(steps, cp.steps)
		for i := range steps {
			steps[i].Pattern = q.Patterns[cp.order[i]]
		}
		return &core.Plan{Estimator: cp.estimator, Steps: steps, Cost: cp.cost}
	}
	e.misses++
	a.mu.Unlock()

	p := core.Optimize(q, est)
	pos := make(map[int]int, len(q.Patterns))
	for j, tp := range q.Patterns {
		pos[tp.Index] = j
	}
	cp := &cachedPlan{
		steps:     append([]core.Step(nil), p.Steps...),
		order:     make([]int, len(p.Steps)),
		cost:      p.Cost,
		estimator: p.Estimator,
	}
	for i, s := range p.Steps {
		cp.order[i] = pos[s.Pattern.Index]
	}
	a.mu.Lock()
	e.plan = cp
	a.mu.Unlock()
	return p
}

// observe folds one complete execution's final q-error (the executed
// plan's last-step estimate vs. the measured last intermediate size)
// into the template's rolling window and fires a replan — invalidating
// the cached plan so the next instance re-optimizes against current
// statistics — when the window median crosses the threshold. Partial
// executions never reach here: their actuals are lower bounds and would
// fake drift.
func (a *adaptive) observe(plan *core.Plan, intermediate []int64) {
	n := len(plan.Steps)
	if n == 0 || len(intermediate) < n {
		return
	}
	qe := obsv.QError(plan.Steps[n-1].JoinEstimate, float64(intermediate[n-1]))
	key, _ := templateKeyFromSteps(plan.Steps)

	a.mu.Lock()
	e := a.entries[key]
	if e == nil {
		a.mu.Unlock()
		return // plan did not come through the cache (e.g. Explain "GS")
	}
	e.qerrs = append(e.qerrs, qe)
	if len(e.qerrs) > a.window {
		e.qerrs = e.qerrs[len(e.qerrs)-a.window:]
	}
	fire := len(e.qerrs) >= adaptiveMinSamples &&
		median(e.qerrs) > a.threshold &&
		e.plan != nil &&
		a.now().Sub(e.lastReplan) >= a.cooldown
	if fire {
		e.plan = nil
		e.qerrs = e.qerrs[:0]
		e.replans++
		e.lastReplan = a.now()
	}
	a.mu.Unlock()
	if fire {
		a.total.Add(1)
	}
}

// median returns the median of xs (mean of the middle pair for even
// lengths). xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// snapshot returns the per-template stats sorted by template text.
func (a *adaptive) snapshot() []TemplateStat {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]TemplateStat, 0, len(a.entries))
	for _, e := range a.entries {
		st := TemplateStat{
			Template:     e.label,
			Observations: len(e.qerrs),
			Hits:         e.hits,
			Misses:       e.misses,
			Replans:      e.replans,
			Cached:       e.plan != nil,
		}
		if len(e.qerrs) > 0 {
			st.QError = median(e.qerrs)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Template < out[j].Template })
	return out
}

// AdaptiveEnabled reports whether WithAdaptiveReplan is active.
func (db *DB) AdaptiveEnabled() bool { return db.adaptive != nil }

// AdaptiveReplans returns the total threshold-triggered replans across
// all templates (0 when the feature is disabled).
func (db *DB) AdaptiveReplans() int64 {
	if db.adaptive == nil {
		return 0
	}
	return db.adaptive.total.Load()
}

// AdaptiveOverflow returns the number of queries planned uncached
// because MaxAdaptiveTemplates templates were already tracked (0 when
// the feature is disabled).
func (db *DB) AdaptiveOverflow() int64 {
	if db.adaptive == nil {
		return 0
	}
	return db.adaptive.overflow.Load()
}

// AdaptiveTemplates returns a snapshot of every tracked template's
// adaptive-replan state, sorted by template text; nil when the feature
// is disabled.
func (db *DB) AdaptiveTemplates() []TemplateStat {
	if db.adaptive == nil {
		return nil
	}
	return db.adaptive.snapshot()
}
