package engine

import (
	"fmt"
	"sort"

	"rdfshapes/internal/rdf"
	"rdfshapes/internal/sparql"
	"rdfshapes/internal/store"
)

// Solutions is a Result after the query's solution modifiers, still in
// dictionary IDs: what a SELECT answers, before any term is decoded.
type Solutions struct {
	// Vars lists the projected variables.
	Vars []string
	// Cols maps them onto the rows: the value of Vars[i] in a row is
	// row[Cols[i]], 0 when an OPTIONAL left it unbound.
	Cols []int
	// Rows are the engine's own rows in answer order — full width (every
	// variable of the BGP, not only the projected ones) and shared with
	// the Result they came from, so no modifier copies a row.
	Rows [][]store.ID
}

// ApplyModifiers applies the query's solution modifiers to res in SPARQL
// order, on IDs: ORDER BY over the full bindings (sort keys need not be
// projected), then projection with DISTINCT, then OFFSET and LIMIT. res
// is left untouched.
func ApplyModifiers(st Source, q *sparql.Query, res *Result) (*Solutions, error) {
	if res.Rows == nil && res.Count > 0 {
		return nil, fmt.Errorf("engine: result was executed with CountOnly")
	}
	proj := q.Projection
	if len(proj) == 0 {
		proj = res.Vars
	}
	col := map[string]int{}
	for i, v := range res.Vars {
		col[v] = i
	}

	rows := res.Rows
	if len(q.OrderBy) > 0 {
		keys := make([]int, len(q.OrderBy))
		for i, k := range q.OrderBy {
			c, ok := col[k.Var]
			if !ok {
				return nil, fmt.Errorf("engine: ORDER BY variable ?%s not bound by the BGP", k.Var)
			}
			keys[i] = c
		}
		rows = orderRows(st.Dict(), rows, keys, q.OrderBy)
	}

	cols := make([]int, len(proj))
	for i, v := range proj {
		c, ok := col[v]
		if !ok {
			if len(rows) == 0 {
				return &Solutions{Vars: proj, Cols: cols}, nil
			}
			return nil, fmt.Errorf("engine: projected variable ?%s not bound by the BGP", v)
		}
		cols[i] = c
	}
	s := &Solutions{Vars: proj, Cols: cols, Rows: rows}
	s.Window(q.Distinct, q.Offset, q.Limit)
	return s, nil
}

// orderRows returns rows stably sorted by the key columns. Each
// distinct key ID is decoded once up front — a comparison is then two
// slice loads and a term comparison, with no dictionary lock taken
// inside the sort.
func orderRows(dict *store.Dict, rows [][]store.ID, keys []int, order []sparql.OrderKey) [][]store.ID {
	nk := len(keys)
	terms := make([]rdf.Term, 1) // terms[0] stands for unbound
	index := map[store.ID]int32{0: 0}
	keyOf := make([]int32, len(rows)*nk) // row r's key k is terms[keyOf[r*nk+k]]
	for r, row := range rows {
		for k, c := range keys {
			id := row[c]
			t, ok := index[id]
			if !ok {
				t = int32(len(terms))
				terms = append(terms, dict.Term(id))
				index[id] = t
			}
			keyOf[r*nk+k] = t
		}
	}
	perm := make([]int, len(rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool {
		ki, kj := keyOf[perm[i]*nk:], keyOf[perm[j]*nk:]
		for k := 0; k < nk; k++ {
			a, b := ki[k], kj[k]
			var cmp int
			switch {
			case a == b:
				continue
			case a == 0: // unbound OPTIONAL values sort first
				cmp = -1
			case b == 0:
				cmp = 1
			default:
				cmp = sparql.CompareTermValues(terms[a], terms[b])
			}
			if cmp == 0 {
				continue
			}
			if order[k].Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	sorted := make([][]store.ID, len(rows))
	for i, r := range perm {
		sorted[i] = rows[r]
	}
	return sorted
}

// Window narrows the solutions to their DISTINCT rows (when distinct),
// then skips offset of them and keeps at most limit (0 = all).
func (s *Solutions) Window(distinct bool, offset, limit int) {
	rows := s.Rows
	if distinct {
		// Key on the projected ID tuple, fixed-width encoded: rendered
		// terms may contain any byte (including a separator), so string
		// concatenation can collide distinct rows; canonical IDs cannot,
		// and 0 (unbound) differs from every real term.
		seen := make(map[string]struct{}, len(rows))
		key := make([]byte, 0, 4*len(s.Cols))
		kept := make([][]store.ID, 0, len(rows))
		for _, row := range rows {
			key = key[:0]
			for _, c := range s.Cols {
				id := row[c]
				key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
			}
			if _, dup := seen[string(key)]; dup {
				continue
			}
			seen[string(key)] = struct{}{}
			kept = append(kept, row)
			if limit > 0 && len(kept) >= offset+limit {
				break
			}
		}
		rows = kept
	}
	if offset > len(rows) {
		offset = len(rows)
	}
	rows = rows[offset:]
	if limit > 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	s.Rows = rows
}

// Each renders the solutions one row at a time — variable → term in
// N-Triples syntax, "" for an unbound variable — and hands each to fn
// until fn returns false. term resolves an ID of Rows; every distinct ID
// is resolved and rendered once however many cells repeat it.
func (s *Solutions) Each(term func(store.ID) rdf.Term, fn func(row map[string]string) bool) {
	rendered := make(map[store.ID]string)
	for _, row := range s.Rows {
		m := make(map[string]string, len(s.Vars))
		for i, v := range s.Vars {
			id := row[s.Cols[i]]
			if id == 0 {
				m[v] = ""
				continue
			}
			str, ok := rendered[id]
			if !ok {
				str = term(id).String()
				rendered[id] = str
			}
			m[v] = str
		}
		if !fn(m) {
			return
		}
	}
}

// Maps renders every solution; see Each. No solutions render as nil.
func (s *Solutions) Maps(term func(store.ID) rdf.Term) []map[string]string {
	if len(s.Rows) == 0 {
		return nil
	}
	out := make([]map[string]string, 0, len(s.Rows))
	s.Each(term, func(row map[string]string) bool {
		out = append(out, row)
		return true
	})
	return out
}

// Materialize converts result rows back into term bindings: the query's
// solution modifiers on IDs (ApplyModifiers), then every row rendered.
func Materialize(st Source, q *sparql.Query, res *Result) ([]map[string]string, error) {
	s, err := ApplyModifiers(st, q, res)
	if err != nil {
		return nil, err
	}
	return s.Maps(st.Dict().Term), nil
}
