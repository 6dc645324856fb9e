package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"rdfshapes/internal/rdf"
)

// Parse parses a SELECT query in the supported SPARQL subset:
//
//	PREFIX ub: <http://example.org/univ#>
//	SELECT DISTINCT ?x ?y WHERE {
//	  ?x a ub:GraduateStudent .
//	  ?x ub:advisor ?y .
//	} LIMIT 10
//
// The keyword 'a' abbreviates rdf:type. Triple patterns are separated by
// '.'; a trailing '.' before '}' is optional per SPARQL grammar.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prefixes: rdf.CommonPrefixes()}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse that panics on error; intended for static workload
// definitions and tests.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks     []token
	i        int
	prefixes *rdf.PrefixMap
	pathVars int // counter for fresh property-path variables
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("sparql: expected %s at offset %d, got %q", what, t.pos, t.text)
	}
	return t, nil
}

// prefixDecls consumes any run of PREFIX declarations, binding each into
// the parser's prefix map. Shared by queries and updates.
func (p *parser) prefixDecls() error {
	for p.cur().kind == tokKeyword && p.cur().text == "PREFIX" {
		p.next()
		name, err := p.expect(tokQName, "prefix name")
		if err != nil {
			return err
		}
		label := strings.TrimSuffix(name.text, ":")
		if label == name.text {
			return fmt.Errorf("sparql: prefix name %q must end with ':' (offset %d)", name.text, name.pos)
		}
		iri, err := p.expect(tokIRI, "prefix IRI")
		if err != nil {
			return err
		}
		p.prefixes.Bind(label, iri.text)
	}
	return nil
}

func (p *parser) query() (*Query, error) {
	q := &Query{Prefixes: p.prefixes}
	if err := p.prefixDecls(); err != nil {
		return nil, err
	}
	// query form: SELECT [DISTINCT] projection | ASK
	switch t := p.cur(); {
	case t.kind == tokKeyword && t.text == "SELECT":
		p.next()
		if p.cur().kind == tokKeyword && p.cur().text == "DISTINCT" {
			q.Distinct = true
			p.next()
		}
		switch p.cur().kind {
		case tokStar:
			p.next()
		case tokVar:
			for p.cur().kind == tokVar {
				q.Projection = append(q.Projection, p.next().text)
			}
		case tokLParen:
			agg, err := p.countAggregate()
			if err != nil {
				return nil, err
			}
			q.Aggregate = agg
		default:
			return nil, fmt.Errorf("sparql: expected '*', variables, or (COUNT...) after SELECT at offset %d", p.cur().pos)
		}
	case t.kind == tokKeyword && t.text == "ASK":
		q.Ask = true
		p.next()
	case t.kind == tokKeyword && t.text == "CONSTRUCT":
		p.next()
		tmpl, err := p.constructTemplate()
		if err != nil {
			return nil, err
		}
		q.Construct = tmpl
	default:
		return nil, fmt.Errorf("sparql: expected SELECT, ASK, or CONSTRUCT at offset %d", t.pos)
	}
	// WHERE is optional for ASK, mandatory for SELECT in this subset
	if t := p.cur(); t.kind == tokKeyword && t.text == "WHERE" {
		p.next()
	} else if !q.Ask {
		return nil, fmt.Errorf("sparql: expected WHERE at offset %d", t.pos)
	}
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	if p.cur().kind == tokLBrace {
		// UNION body: WHERE { {G1} UNION {G2} ... }. In this subset a
		// union body may not mix with other clauses.
		if err := p.unionBody(q); err != nil {
			return nil, err
		}
		if err := p.solutionModifiers(q); err != nil {
			return nil, err
		}
		if t := p.cur(); t.kind != tokEOF {
			return nil, fmt.Errorf("sparql: trailing input at offset %d: %q", t.pos, t.text)
		}
		if len(q.OrderBy) > 0 {
			return nil, fmt.Errorf("sparql: ORDER BY over UNION is not supported")
		}
		if err := validateFilters(q); err != nil {
			return nil, err
		}
		if err := validateAggregate(q); err != nil {
			return nil, err
		}
		return q, nil
	}
	for p.cur().kind != tokRBrace {
		if t := p.cur(); t.kind == tokKeyword && t.text == "FILTER" {
			p.next()
			f, err := p.filter()
			if err != nil {
				return nil, err
			}
			q.Filters = append(q.Filters, f)
			if p.cur().kind == tokDot {
				p.next()
			}
			continue
		}
		if t := p.cur(); t.kind == tokKeyword && t.text == "OPTIONAL" {
			p.next()
			group, groupFilters, err := p.optionalGroup()
			if err != nil {
				return nil, err
			}
			q.Optionals = append(q.Optionals, group)
			for len(q.OptionalFilters) < len(q.Optionals)-1 {
				q.OptionalFilters = append(q.OptionalFilters, nil)
			}
			q.OptionalFilters = append(q.OptionalFilters, groupFilters)
			if p.cur().kind == tokDot {
				p.next()
			}
			continue
		}
		tps, err := p.triplePattern()
		if err != nil {
			return nil, err
		}
		for _, tp := range tps {
			tp.Index = len(q.Patterns)
			q.Patterns = append(q.Patterns, tp)
		}
		if p.cur().kind == tokDot {
			p.next()
		} else if t := p.cur(); t.kind != tokRBrace && !(t.kind == tokKeyword && (t.text == "FILTER" || t.text == "OPTIONAL")) {
			return nil, fmt.Errorf("sparql: expected '.', FILTER, OPTIONAL, or '}' at offset %d", t.pos)
		}
	}
	p.next() // consume '}'
	if err := p.solutionModifiers(q); err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind != tokEOF {
		return nil, fmt.Errorf("sparql: trailing input at offset %d: %q", t.pos, t.text)
	}
	if len(q.Patterns) == 0 {
		return nil, fmt.Errorf("sparql: empty basic graph pattern")
	}
	if err := validateFilters(q); err != nil {
		return nil, err
	}
	if err := validateAggregate(q); err != nil {
		return nil, err
	}
	return q, nil
}

// constructTemplate parses "{ tp . tp . }" after the CONSTRUCT keyword.
// Property paths are not allowed in templates: a template states triples
// to emit, not a navigation.
func (p *parser) constructTemplate() ([]TriplePattern, error) {
	if _, err := p.expect(tokLBrace, "'{' after CONSTRUCT"); err != nil {
		return nil, err
	}
	var tmpl []TriplePattern
	for p.cur().kind != tokRBrace {
		tps, err := p.triplePattern()
		if err != nil {
			return nil, err
		}
		if len(tps) != 1 {
			return nil, fmt.Errorf("sparql: property paths are not allowed in CONSTRUCT templates")
		}
		tps[0].Index = len(tmpl)
		tmpl = append(tmpl, tps[0])
		if p.cur().kind == tokDot {
			p.next()
		} else if p.cur().kind != tokRBrace {
			return nil, fmt.Errorf("sparql: expected '.' or '}' in CONSTRUCT template at offset %d", p.cur().pos)
		}
	}
	p.next() // consume '}'
	if len(tmpl) == 0 {
		return nil, fmt.Errorf("sparql: empty CONSTRUCT template")
	}
	return tmpl, nil
}

// unionBody parses "{G1} UNION {G2} ..." up to and including the closing
// outer '}'.
func (p *parser) unionBody(q *Query) error {
	for {
		if _, err := p.expect(tokLBrace, "'{'"); err != nil {
			return err
		}
		var group []TriplePattern
		for p.cur().kind != tokRBrace {
			tps, err := p.triplePattern()
			if err != nil {
				return err
			}
			for _, tp := range tps {
				tp.Index = len(group)
				group = append(group, tp)
			}
			if p.cur().kind == tokDot {
				p.next()
			} else if p.cur().kind != tokRBrace {
				return fmt.Errorf("sparql: expected '.' or '}' in UNION branch at offset %d", p.cur().pos)
			}
		}
		p.next() // consume branch '}'
		if len(group) == 0 {
			return fmt.Errorf("sparql: empty UNION branch")
		}
		q.UnionGroups = append(q.UnionGroups, group)
		if t := p.cur(); t.kind == tokKeyword && t.text == "UNION" {
			p.next()
			continue
		}
		break
	}
	if len(q.UnionGroups) < 2 {
		return fmt.Errorf("sparql: UNION requires at least two branches")
	}
	if _, err := p.expect(tokRBrace, "'}' closing the union body"); err != nil {
		return err
	}
	return nil
}

// countAggregate parses "( COUNT ( [DISTINCT] (*|?v) ) AS ?c )".
func (p *parser) countAggregate() (*CountAggregate, error) {
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	if t := p.next(); t.kind != tokKeyword || t.text != "COUNT" {
		return nil, fmt.Errorf("sparql: expected COUNT at offset %d", t.pos)
	}
	if _, err := p.expect(tokLParen, "'(' after COUNT"); err != nil {
		return nil, err
	}
	agg := &CountAggregate{}
	if t := p.cur(); t.kind == tokKeyword && t.text == "DISTINCT" {
		agg.Distinct = true
		p.next()
	}
	switch t := p.next(); t.kind {
	case tokStar:
		if agg.Distinct {
			return nil, fmt.Errorf("sparql: COUNT(DISTINCT *) is not supported (offset %d)", t.pos)
		}
	case tokVar:
		agg.Var = t.text
	default:
		return nil, fmt.Errorf("sparql: expected '*' or variable in COUNT at offset %d", t.pos)
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	if t := p.next(); t.kind != tokKeyword || t.text != "AS" {
		return nil, fmt.Errorf("sparql: expected AS at offset %d", t.pos)
	}
	as, err := p.expect(tokVar, "output variable")
	if err != nil {
		return nil, err
	}
	agg.As = as.text
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	return agg, nil
}

// validateAggregate checks the COUNT projection against the BGP.
func validateAggregate(q *Query) error {
	if q.Aggregate == nil {
		return nil
	}
	if q.Ask {
		return fmt.Errorf("sparql: ASK cannot carry a COUNT projection")
	}
	if q.Aggregate.Var == "" {
		return nil
	}
	for _, v := range q.AllVars() {
		if v == q.Aggregate.Var {
			return nil
		}
	}
	return fmt.Errorf("sparql: COUNT references unbound variable ?%s", q.Aggregate.Var)
}

// optionalGroup parses "{ tp . tp . FILTER(...) }" after the OPTIONAL
// keyword. FILTER clauses inside the group scope to the group: they
// constrain whether the group matches, never whether the enclosing
// solution survives. Nested OPTIONAL remains outside the supported
// subset.
func (p *parser) optionalGroup() ([]TriplePattern, []Filter, error) {
	if _, err := p.expect(tokLBrace, "'{' after OPTIONAL"); err != nil {
		return nil, nil, err
	}
	var group []TriplePattern
	var filters []Filter
	for p.cur().kind != tokRBrace {
		if t := p.cur(); t.kind == tokKeyword && t.text == "FILTER" {
			p.next()
			f, err := p.filter()
			if err != nil {
				return nil, nil, err
			}
			filters = append(filters, f)
			if p.cur().kind == tokDot {
				p.next()
			}
			continue
		}
		tps, err := p.triplePattern()
		if err != nil {
			return nil, nil, err
		}
		group = append(group, tps...)
		if p.cur().kind == tokDot {
			p.next()
		} else if t := p.cur(); t.kind != tokRBrace && !(t.kind == tokKeyword && t.text == "FILTER") {
			return nil, nil, fmt.Errorf("sparql: expected '.', FILTER, or '}' in OPTIONAL at offset %d", p.cur().pos)
		}
	}
	p.next() // consume '}'
	if len(group) == 0 {
		return nil, nil, fmt.Errorf("sparql: empty OPTIONAL group")
	}
	return group, filters, nil
}

// filter parses "( operand op operand )" after the FILTER keyword.
func (p *parser) filter() (Filter, error) {
	if _, err := p.expect(tokLParen, "'(' after FILTER"); err != nil {
		return Filter{}, err
	}
	left, err := p.filterOperand()
	if err != nil {
		return Filter{}, err
	}
	opTok, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return Filter{}, err
	}
	var op CompareOp
	switch opTok.text {
	case "=":
		op = OpEq
	case "!=":
		op = OpNe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	default:
		return Filter{}, fmt.Errorf("sparql: unsupported operator %q at offset %d", opTok.text, opTok.pos)
	}
	right, err := p.filterOperand()
	if err != nil {
		return Filter{}, err
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return Filter{}, err
	}
	if !left.IsVar() && !right.IsVar() {
		return Filter{}, fmt.Errorf("sparql: filter with two constants at offset %d", opTok.pos)
	}
	return Filter{Left: left, Op: op, Right: right}, nil
}

func (p *parser) filterOperand() (PatternTerm, error) {
	return p.patternTerm(false)
}

// solutionModifiers parses ORDER BY, LIMIT, and OFFSET after the group.
func (p *parser) solutionModifiers(q *Query) error {
	if t := p.cur(); t.kind == tokKeyword && t.text == "ORDER" {
		p.next()
		if t := p.cur(); t.kind != tokKeyword || t.text != "BY" {
			return fmt.Errorf("sparql: expected BY after ORDER at offset %d", t.pos)
		}
		p.next()
		for {
			t := p.cur()
			switch {
			case t.kind == tokVar:
				p.next()
				q.OrderBy = append(q.OrderBy, OrderKey{Var: t.text})
			case t.kind == tokKeyword && (t.text == "ASC" || t.text == "DESC"):
				p.next()
				if _, err := p.expect(tokLParen, "'('"); err != nil {
					return err
				}
				v, err := p.expect(tokVar, "variable")
				if err != nil {
					return err
				}
				if _, err := p.expect(tokRParen, "')'"); err != nil {
					return err
				}
				q.OrderBy = append(q.OrderBy, OrderKey{Var: v.text, Desc: t.text == "DESC"})
			default:
				if len(q.OrderBy) == 0 {
					return fmt.Errorf("sparql: expected sort key at offset %d", t.pos)
				}
				goto done
			}
		}
	done:
	}
	for {
		t := p.cur()
		if t.kind != tokKeyword || (t.text != "LIMIT" && t.text != "OFFSET") {
			break
		}
		p.next()
		num, err := p.expect(tokNumber, t.text+" value")
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(num.text)
		if err != nil || n < 0 {
			return fmt.Errorf("sparql: invalid %s %q at offset %d", t.text, num.text, num.pos)
		}
		if t.text == "LIMIT" {
			q.Limit = n
		} else {
			q.Offset = n
		}
	}
	return nil
}

// validateFilters ensures every filter variable is bound by the required
// BGP — or, for a UNION query, by every branch (so each branch can apply
// the filter independently). A top-level filter whose variables are only
// bound inside one OPTIONAL group is rescoped into that group
// (OptionalFilters): per the SPARQL group-scoping semantics, such a
// filter constrains the group match, not the whole solution — an absent
// binding must leave the solution intact with the group unbound, never
// reject the row. Filters scoped to a group (written inside it or
// rescoped) may reference that group's variables plus required ones.
func validateFilters(q *Query) error {
	required := map[string]bool{}
	for _, tp := range q.Patterns {
		for _, v := range tp.Vars() {
			required[v] = true
		}
	}
	groupBound := make([]map[string]bool, len(q.Optionals))
	for gi, g := range q.Optionals {
		groupBound[gi] = map[string]bool{}
		for _, tp := range g {
			for _, v := range tp.Vars() {
				groupBound[gi][v] = true
			}
		}
	}

	if len(q.UnionGroups) == 0 && len(q.Optionals) > 0 {
		var kept []Filter
		for _, f := range q.Filters {
			target := -1
			for _, v := range f.Vars() {
				if required[v] {
					continue
				}
				found := -1
				for gi := range groupBound {
					if groupBound[gi][v] {
						found = gi
						break
					}
				}
				if found < 0 {
					return fmt.Errorf("sparql: filter references variable ?%s not bound by every branch", v)
				}
				if target >= 0 && target != found {
					return fmt.Errorf("sparql: filter %s straddles two OPTIONAL groups; no single group scope", f)
				}
				target = found
			}
			if target < 0 {
				kept = append(kept, f)
				continue
			}
			for len(q.OptionalFilters) < len(q.Optionals) {
				q.OptionalFilters = append(q.OptionalFilters, nil)
			}
			q.OptionalFilters[target] = append(q.OptionalFilters[target], f)
		}
		q.Filters = kept
	}

	boundSets := [][]TriplePattern{q.Patterns}
	if len(q.UnionGroups) > 0 {
		boundSets = q.UnionGroups
	}
	for _, set := range boundSets {
		bound := map[string]bool{}
		for _, tp := range set {
			for _, v := range tp.Vars() {
				bound[v] = true
			}
		}
		for _, f := range q.Filters {
			for _, v := range f.Vars() {
				if !bound[v] {
					return fmt.Errorf("sparql: filter references variable ?%s not bound by every branch", v)
				}
			}
		}
	}
	for gi, fs := range q.OptionalFilters {
		for _, f := range fs {
			for _, v := range f.Vars() {
				if !required[v] && !groupBound[gi][v] {
					return fmt.Errorf("sparql: OPTIONAL filter references variable ?%s not bound by the group or the required patterns", v)
				}
			}
		}
	}
	all := map[string]bool{}
	for _, v := range q.AllVars() {
		all[v] = true
	}
	for _, k := range q.OrderBy {
		if !all[k.Var] {
			return fmt.Errorf("sparql: ORDER BY references unbound variable ?%s", k.Var)
		}
	}
	return nil
}

// pathStep is one element of a property path in predicate position.
type pathStep struct {
	inverse bool
	pred    PatternTerm
}

// triplePattern parses one subject–path–object statement. Property paths
// (sequence "/" and inverse "^") desugar into chains of plain triple
// patterns over fresh internal variables, so everything downstream —
// planner, estimators, engine — sees ordinary BGPs:
//
//	?x ub:advisor/ub:name ?n   ⇒   ?x ub:advisor ?_path1 . ?_path1 ub:name ?n
//	?c ^ub:teacherOf ?t        ⇒   ?t ub:teacherOf ?c
func (p *parser) triplePattern() ([]TriplePattern, error) {
	s, err := p.patternTerm(true)
	if err != nil {
		return nil, err
	}
	var steps []pathStep
	for {
		step := pathStep{}
		if p.cur().kind == tokCaret {
			p.next()
			step.inverse = true
		}
		pr, err := p.patternTerm(true)
		if err != nil {
			return nil, err
		}
		if !pr.IsVar() && !pr.Term.IsIRI() {
			return nil, fmt.Errorf("sparql: predicate must be an IRI or variable, got %s", pr)
		}
		step.pred = pr
		steps = append(steps, step)
		if p.cur().kind == tokSlash {
			p.next()
			continue
		}
		break
	}
	if len(steps) > 1 {
		for _, st := range steps {
			if st.pred.IsVar() {
				return nil, fmt.Errorf("sparql: variable predicates are not allowed in property paths")
			}
		}
	}
	o, err := p.patternTerm(false)
	if err != nil {
		return nil, err
	}

	// chain the steps through fresh variables
	out := make([]TriplePattern, 0, len(steps))
	cur := s
	for i, st := range steps {
		var next PatternTerm
		if i == len(steps)-1 {
			next = o
		} else {
			p.pathVars++
			next = Variable(fmt.Sprintf("_path%d", p.pathVars))
		}
		tp := TriplePattern{S: cur, P: st.pred, O: next}
		if st.inverse {
			tp.S, tp.O = tp.O, tp.S
		}
		out = append(out, tp)
		cur = next
	}
	return out, nil
}

func (p *parser) patternTerm(subjectOrPred bool) (PatternTerm, error) {
	t := p.next()
	switch t.kind {
	case tokVar:
		return Variable(t.text), nil
	case tokIRI:
		return Bound(rdf.NewIRI(t.text)), nil
	case tokQName:
		if t.text == "a" {
			return Bound(rdf.NewIRI(rdf.RDFType)), nil
		}
		iri, err := p.prefixes.Expand(t.text)
		if err != nil {
			return PatternTerm{}, fmt.Errorf("%w (offset %d)", err, t.pos)
		}
		return Bound(rdf.NewIRI(iri)), nil
	case tokLiteral:
		if subjectOrPred {
			return PatternTerm{}, fmt.Errorf("sparql: literal not allowed here (offset %d)", t.pos)
		}
		term, err := parseLiteralToken(t.text)
		if err != nil {
			return PatternTerm{}, fmt.Errorf("%w (offset %d)", err, t.pos)
		}
		return Bound(term), nil
	case tokNumber:
		if subjectOrPred {
			return PatternTerm{}, fmt.Errorf("sparql: number not allowed here (offset %d)", t.pos)
		}
		dt := rdf.XSDInteger
		if strings.Contains(t.text, ".") {
			dt = rdf.XSDDecimal
		}
		return Bound(rdf.NewTypedLiteral(t.text, dt)), nil
	default:
		return PatternTerm{}, fmt.Errorf("sparql: unexpected token %q at offset %d", t.text, t.pos)
	}
}

// parseLiteralToken parses a raw literal token produced by the lexer, e.g.
// "abc", "abc"@en, or "5"^^<http://www.w3.org/2001/XMLSchema#integer>.
func parseLiteralToken(raw string) (rdf.Term, error) {
	if len(raw) < 2 || raw[0] != '"' {
		return rdf.Term{}, fmt.Errorf("sparql: malformed literal %q", raw)
	}
	// find closing quote
	j := 1
	for j < len(raw) {
		if raw[j] == '\\' {
			j += 2
			continue
		}
		if raw[j] == '"' {
			break
		}
		j++
	}
	if j >= len(raw) {
		return rdf.Term{}, fmt.Errorf("sparql: malformed literal %q", raw)
	}
	lex := unescapeSPARQL(raw[1:j])
	rest := raw[j+1:]
	switch {
	case rest == "":
		return rdf.NewLiteral(lex), nil
	case strings.HasPrefix(rest, "@"):
		return rdf.NewLangLiteral(lex, rest[1:]), nil
	case strings.HasPrefix(rest, "^^<") && strings.HasSuffix(rest, ">"):
		return rdf.NewTypedLiteral(lex, rest[3:len(rest)-1]), nil
	default:
		return rdf.Term{}, fmt.Errorf("sparql: malformed literal suffix %q", rest)
	}
}

func unescapeSPARQL(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			default:
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
