package rdfshapes

import (
	"context"
	"strings"

	"rdfshapes/internal/engine"
	"rdfshapes/internal/rdf"
	"rdfshapes/internal/sparql"
	"rdfshapes/internal/store"
)

// Bindings is a SELECT or ASK answer with its cells still dictionary
// IDs: solution modifiers are applied, no term has been decoded. It is
// what every query form is evaluated into — Maps renders it for library
// callers, the HTTP server encodes it straight to SPARQL-JSON — so a
// term repeated across thousands of rows is decoded once, by whoever
// consumes the answer.
type Bindings struct {
	// Vars lists the projected variable names.
	Vars []string
	// Cols maps Vars onto Rows: the value of Vars[i] in a row is
	// row[Cols[i]], 0 when an OPTIONAL left the variable unbound.
	Cols []int
	// Rows holds one ID row per solution, in answer order. Rows may be
	// wider than Vars (they are the engine's rows, shared, not copied);
	// resolve a nonzero cell with Term.
	Rows [][]store.ID
	// Plan is the executed join order, for diagnostics.
	Plan string
	// Truncated is true when a WithLimits budget stopped execution
	// early: Rows holds the solutions computed within budget.
	Truncated bool
	// Ask is true when the query parsed as ASK: execution stopped at the
	// first solution, and the answer is whether Rows is non-empty.
	Ask bool

	// Exactly one of dict and local resolves the cells: the dictionary of
	// the snapshot the query ran against (append-only, so IDs stay valid
	// after the snapshot is released), or — for a COUNT, whose one value
	// is no term of the dataset — the answer's own table, indexed by ID.
	dict  *store.Dict
	local []rdf.Term
}

// Term decodes a nonzero cell of Rows.
func (b *Bindings) Term(id store.ID) rdf.Term {
	if b.local != nil {
		return b.local[id]
	}
	return b.dict.Term(id)
}

// Dict returns the dictionary that resolves the cells, or nil when the
// answer carries its own term table (a COUNT).
func (b *Bindings) Dict() *store.Dict { return b.dict }

// Maps renders the answer as one variable → term map per solution, terms
// in N-Triples syntax and "" for an unbound variable: Result.Rows.
func (b *Bindings) Maps() []map[string]string {
	return b.solutions().Maps(b.Term)
}

func (b *Bindings) solutions() *engine.Solutions {
	return &engine.Solutions{Vars: b.Vars, Cols: b.Cols, Rows: b.Rows}
}

// SelectCtx parses, optimizes (with shape statistics) and executes a
// SELECT or ASK query and applies FILTER, ORDER BY, DISTINCT, OFFSET and
// LIMIT, leaving the answer in dictionary IDs; see Bindings. A CONSTRUCT
// query returns ErrConstruct. Cancellation and deadlines behave as
// documented on QueryCtx, which is this call plus Bindings.Maps.
func (db *DB) SelectCtx(ctx context.Context, src string) (*Bindings, error) {
	if err := db.begin(); err != nil {
		return nil, err
	}
	defer db.end()
	ctx, cancel := db.withTimeout(ctx)
	defer cancel()
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	return db.viewCtx(ctx).selectParsed(src, q)
}

// selectParsed evaluates an already-parsed query of any bindings form —
// plain, UNION, COUNT, ASK; src is the original query text, carried for
// trace attribution.
func (v view) selectParsed(src string, q *sparql.Query) (*Bindings, error) {
	switch {
	case len(q.Construct) > 0:
		return nil, ErrConstruct
	case q.Aggregate != nil:
		return v.selectAggregate(src, q)
	case len(q.UnionGroups) > 0:
		return v.selectUnion(src, q)
	}
	limit := 0
	if q.Ask {
		limit = 1
	}
	return v.selectBGP(src, q, limit)
}

// selectBGP plans and executes one conjunctive query (with its OPTIONAL
// groups) and applies its solution modifiers. limit, when positive, is
// pushed into execution: enumeration stops at that many solutions.
func (v view) selectBGP(src string, q *sparql.Query, limit int) (*Bindings, error) {
	plan := v.plan(q)
	er, err := v.exec(src, plan, engine.Options{
		Filters:   q.Filters,
		Optionals: q.Optionals, OptionalFilters: q.OptionalFilters,
		Limit: limit,
	})
	if err != nil {
		return nil, err
	}
	if len(q.Projection) == 0 {
		// SELECT * answers in the query's textual variable order; the
		// engine's columns follow the planned join order.
		star := *q
		star.Projection = q.AllVars()
		q = &star
	}
	sol, err := engine.ApplyModifiers(v.snap, q, er)
	if err != nil {
		return nil, err
	}
	return &Bindings{
		Vars: sol.Vars, Cols: sol.Cols, Rows: sol.Rows,
		Plan: plan.String(), Truncated: er.Truncated, Ask: q.Ask,
		dict: v.snap.Dict(),
	}, nil
}

// selectUnion evaluates a top-level UNION: every branch is planned and
// executed independently and projected onto the shared layout — a
// variable the branch does not bind is unbound (0) in its rows — the
// branches are concatenated, then DISTINCT, OFFSET, and LIMIT apply to
// the combined rows — on IDs, all branches reading one snapshot's
// dictionary. The in-scope variables of a UNION are those of any branch
// (SPARQL 1.1 §18.2.1), so SELECT * projects every branch variable in
// first-appearance order.
func (v view) selectUnion(src string, q *sparql.Query) (*Bindings, error) {
	proj := q.Projection
	if len(proj) == 0 {
		proj = q.AllVars()
	}
	all := engine.Solutions{Vars: proj, Cols: make([]int, len(proj))}
	for i := range all.Cols {
		all.Cols[i] = i
	}
	var plans []string
	truncated := false
	for i := range q.UnionGroups {
		bq := q.Branch(i)
		bq.Projection = nil // every variable the branch binds; see col below
		bq.Distinct = false
		bq.Limit = 0
		bq.Offset = 0
		plan := v.plan(bq)
		plans = append(plans, plan.String())
		opts := engine.Options{Filters: bq.Filters}
		if q.Ask {
			opts.Limit = 1 // one solution per branch settles an ASK
		}
		er, err := v.exec(src, plan, opts)
		if err != nil {
			return nil, err
		}
		sol, err := engine.ApplyModifiers(v.snap, bq, er)
		if err != nil {
			return nil, err
		}
		truncated = truncated || er.Truncated
		// Copy the branch into the shared layout: col[j] is the branch's
		// column for proj[j], -1 when the branch does not bind it.
		col := make([]int, len(proj))
		for j, name := range proj {
			col[j] = -1
			for k, bv := range sol.Vars {
				if bv == name {
					col[j] = sol.Cols[k]
				}
			}
		}
		w := len(proj)
		slab := make([]store.ID, len(sol.Rows)*w)
		for _, row := range sol.Rows {
			p := slab[:w:w]
			slab = slab[w:]
			for j, c := range col {
				if c >= 0 {
					p[j] = row[c]
				}
			}
			all.Rows = append(all.Rows, p)
		}
	}
	all.Window(q.Distinct, q.Offset, q.Limit)
	return &Bindings{
		Vars: proj, Cols: all.Cols, Rows: all.Rows,
		Plan: strings.Join(plans, ""), Truncated: truncated, Ask: q.Ask,
		dict: v.snap.Dict(),
	}, nil
}

// selectAggregate evaluates a COUNT projection. Its one value is carried
// in the answer's own term table, so counting never grows the dataset's
// dictionary.
func (v view) selectAggregate(src string, q *sparql.Query) (*Bindings, error) {
	agg := q.Aggregate
	count := func(n int64, plan string, truncated bool) *Bindings {
		return &Bindings{
			Vars: []string{agg.As}, Cols: []int{0}, Rows: [][]store.ID{{1}},
			Plan: plan, Truncated: truncated,
			local: []rdf.Term{{}, rdf.NewInteger(n)},
		}
	}
	if agg.Var == "" && !q.Distinct {
		// COUNT(*): counting needs no rows
		n, truncated, err := v.countSolutions(src, q)
		if err != nil {
			return nil, err
		}
		return count(n, "", truncated), nil
	}
	// COUNT(?v) / COUNT(DISTINCT ?v): evaluate the counted column
	inner := q.Clone()
	inner.Aggregate = nil
	inner.Distinct = false
	inner.Limit = 0
	inner.Offset = 0
	if agg.Var != "" {
		inner.Projection = []string{agg.Var}
	} else {
		inner.Projection = nil
	}
	b, err := v.selectParsed(src, inner)
	if err != nil {
		return nil, err
	}
	n := int64(len(b.Rows))
	if agg.Var != "" {
		n = 0
		seen := map[store.ID]struct{}{}
		for _, row := range b.Rows {
			id := row[b.Cols[0]]
			if id == 0 {
				continue // unbound values are not counted
			}
			if agg.Distinct {
				if _, dup := seen[id]; dup {
					continue
				}
				seen[id] = struct{}{}
			}
			n++
		}
	}
	return count(n, b.Plan, b.Truncated), nil
}
