package rdfshapes_test

import (
	"bytes"
	"errors"
	"sort"
	"strings"
	"testing"

	"rdfshapes"
	"rdfshapes/internal/datagen/lubm"
	"rdfshapes/internal/obsv"
	"rdfshapes/internal/rdf"
)

const testNT = `
<http://ex/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
<http://ex/alice> <http://ex/name> "Alice" .
<http://ex/alice> <http://ex/knows> <http://ex/bob> .
<http://ex/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
<http://ex/bob> <http://ex/name> "Bob" .
`

func open(t *testing.T) *rdfshapes.DB {
	t.Helper()
	db, err := rdfshapes.LoadNTriples(strings.NewReader(testNT))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestLoadInfersAndAnnotates(t *testing.T) {
	db := open(t)
	if db.NumTriples() != 5 {
		t.Errorf("NumTriples = %d", db.NumTriples())
	}
	if !db.Shapes().Annotated() {
		t.Error("shapes not annotated at load")
	}
	person := db.Shapes().ByClass("http://ex/Person")
	if person == nil || person.Count != 2 {
		t.Fatalf("Person shape = %+v", person)
	}
	if db.Stats().Triples != 5 {
		t.Errorf("global triples = %d", db.Stats().Triples)
	}
	if db.Store().Len() != 5 {
		t.Errorf("store len = %d", db.Store().Len())
	}
}

func TestLoadNTriplesParseError(t *testing.T) {
	if _, err := rdfshapes.LoadNTriples(strings.NewReader("garbage here")); err == nil {
		t.Error("malformed input accepted")
	}
}

func TestQueryEndToEnd(t *testing.T) {
	db := open(t)
	res, err := db.Query(`
		PREFIX ex: <http://ex/>
		SELECT ?n WHERE {
			?x a ex:Person .
			?x ex:knows ?y .
			?y ex:name ?n .
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["n"] != `"Bob"` {
		t.Errorf("rows = %v", res.Rows)
	}
	if !strings.Contains(res.Plan, "plan (") {
		t.Errorf("plan missing: %q", res.Plan)
	}
}

func TestQuerySyntaxError(t *testing.T) {
	db := open(t)
	if _, err := db.Query("SELECT"); err == nil {
		t.Error("syntax error accepted")
	}
	if _, err := db.Count("SELECT"); err == nil {
		t.Error("Count accepted a syntax error")
	}
	if _, err := db.EstimateCount("SELECT"); err == nil {
		t.Error("EstimateCount accepted a syntax error")
	}
}

func TestCountAndEstimate(t *testing.T) {
	db := open(t)
	src := `PREFIX ex: <http://ex/>
		SELECT * WHERE { ?x a ex:Person . ?x ex:name ?n . }`
	n, err := db.Count(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("Count = %d, want 2", n)
	}
	est, err := db.EstimateCount(src)
	if err != nil {
		t.Fatal(err)
	}
	if est != 2 {
		t.Errorf("EstimateCount = %v, want exactly 2 (shape stats are exact here)", est)
	}
}

func TestExplainApproaches(t *testing.T) {
	db := open(t)
	src := `PREFIX ex: <http://ex/>
		SELECT * WHERE { ?x a ex:Person . ?x ex:name ?n . }`
	for _, approach := range []string{"", "SS", "GS"} {
		plan, err := db.Explain(src, approach)
		if err != nil {
			t.Errorf("Explain(%q): %v", approach, err)
		}
		if !strings.Contains(plan, "ex/Person") {
			t.Errorf("Explain(%q) = %q", approach, plan)
		}
	}
	if _, err := db.Explain(src, "bogus"); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestValidateThroughFacade(t *testing.T) {
	db := open(t)
	if vs := db.Validate(0); len(vs) != 0 {
		t.Errorf("violations on conforming data: %v", vs)
	}
}

func TestWithShapesGraphOption(t *testing.T) {
	g := lubm.Generate(lubm.Config{Universities: 1, Seed: 9})
	db, err := rdfshapes.Load(g, rdfshapes.WithShapesGraph(lubm.Shapes()))
	if err != nil {
		t.Fatal(err)
	}
	shape := db.Shapes().ByClass(lubm.GraduateStudent)
	if shape == nil || shape.Count <= 0 {
		t.Fatalf("GraduateStudent shape = %+v", shape)
	}
	// the shipped shape IRIs must be preserved (not re-minted)
	if !strings.HasPrefix(shape.IRI, "urn:shapes:lubm:") {
		t.Errorf("shape IRI = %q", shape.IRI)
	}
}

func TestWriteShapesTurtle(t *testing.T) {
	db := open(t)
	var sb strings.Builder
	if err := db.WriteShapesTurtle(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sh:NodeShape", "sh:count"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("turtle missing %q", want)
		}
	}
}

func TestTypeFreeQueryFallsBackToGlobal(t *testing.T) {
	db := open(t)
	// no type pattern: the facade must still answer correctly
	res, err := db.Query(`PREFIX ex: <http://ex/>
		SELECT ?n WHERE { ?x ex:knows ?y . ?y ex:name ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestLoadEmptyGraph(t *testing.T) {
	db, err := rdfshapes.Load(rdf.Graph{})
	if err != nil {
		t.Fatal(err)
	}
	if db.NumTriples() != 0 {
		t.Errorf("NumTriples = %d", db.NumTriples())
	}
	if _, err := db.Count(`SELECT * WHERE { ?s ?p ?o }`); err != nil {
		t.Errorf("query over empty graph: %v", err)
	}
}

func TestDistinctAndLimitThroughFacade(t *testing.T) {
	db := open(t)
	res, err := db.Query(`PREFIX ex: <http://ex/>
		SELECT DISTINCT ?x WHERE { ?x a ex:Person . ?x ex:name ?n . } LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestFilterOrderAskThroughFacade(t *testing.T) {
	db := open(t)
	// FILTER
	n, err := db.Count(`PREFIX ex: <http://ex/>
		SELECT * WHERE { ?x ex:name ?n . FILTER(?n != "Alice") }`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("filtered count = %d, want 1", n)
	}
	// ORDER BY DESC
	res, err := db.Query(`PREFIX ex: <http://ex/>
		SELECT ?n WHERE { ?x a ex:Person . ?x ex:name ?n . } ORDER BY DESC(?n)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0]["n"] != `"Bob"` {
		t.Errorf("ordered rows = %v", res.Rows)
	}
	// ASK
	yes, err := db.Ask(`PREFIX ex: <http://ex/> ASK { ?x ex:knows ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if !yes {
		t.Error("ASK = false, want true")
	}
	no, err := db.Ask(`PREFIX ex: <http://ex/> ASK { ?x ex:knows ?y . FILTER(?y = <http://ex/alice>) }`)
	if err != nil {
		t.Fatal(err)
	}
	if no {
		t.Error("ASK = true, want false (nobody knows alice)")
	}
	// Query answers an ASK too: the form is reported, one row settles it
	res, err = db.Query(`PREFIX ex: <http://ex/> ASK { ?x a ex:Person }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ask || len(res.Rows) != 1 {
		t.Errorf("Query of an ASK: Ask = %v with %d rows, want true with 1", res.Ask, len(res.Rows))
	}
	if _, err := db.Ask("ASK {"); err == nil {
		t.Error("Ask accepted a syntax error")
	}
}

func TestSnapshotThroughFacade(t *testing.T) {
	db := open(t)
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := rdfshapes.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumTriples() != db.NumTriples() {
		t.Errorf("triples = %d, want %d", rt.NumTriples(), db.NumTriples())
	}
	if !rt.Shapes().Annotated() {
		t.Error("snapshot reload lost shape annotation")
	}
	n, err := rt.Count(`PREFIX ex: <http://ex/>
		SELECT * WHERE { ?x a ex:Person . ?x ex:knows ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("count after snapshot reload = %d, want 1", n)
	}
	if _, err := rdfshapes.LoadSnapshot(strings.NewReader("junk")); err == nil {
		t.Error("junk snapshot accepted")
	}
}

func TestOptionalThroughFacade(t *testing.T) {
	db := open(t)
	// alice knows bob; bob knows nobody → bob's row keeps ?y unbound
	res, err := db.Query(`PREFIX ex: <http://ex/>
		SELECT ?x ?y WHERE {
			?x a ex:Person .
			OPTIONAL { ?x ex:knows ?y }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	unbound := 0
	for _, r := range res.Rows {
		if r["y"] == "" {
			unbound++
		}
	}
	if unbound != 1 {
		t.Errorf("unbound rows = %d, want 1 (bob)", unbound)
	}
}

func TestUnionThroughFacade(t *testing.T) {
	db := open(t)
	res, err := db.Query(`PREFIX ex: <http://ex/>
		SELECT ?x WHERE {
			{ ?x ex:name "Alice" }
			UNION
			{ ?x ex:name "Bob" }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Count over union sums the branches
	n, err := db.Count(`PREFIX ex: <http://ex/>
		SELECT * WHERE {
			{ ?x a ex:Person }
			UNION
			{ ?x ex:knows ?y }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // 2 persons + 1 knows edge
		t.Errorf("union count = %d, want 3", n)
	}
	// DISTINCT dedupes across branches
	res, err = db.Query(`PREFIX ex: <http://ex/>
		SELECT DISTINCT ?x WHERE {
			{ ?x a ex:Person }
			UNION
			{ ?x ex:name ?n }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("distinct union rows = %v", res.Rows)
	}
	// Ask over union
	yes, err := db.Ask(`PREFIX ex: <http://ex/>
		ASK { { ?x ex:nosuch ?y } UNION { ?x ex:knows ?y } }`)
	if err != nil {
		t.Fatal(err)
	}
	if !yes {
		t.Error("union ASK = false")
	}
}

func TestUnionParseErrors(t *testing.T) {
	db := open(t)
	bad := []string{
		`SELECT * WHERE { { ?x <http://p> ?y } }`,                                        // single branch
		`SELECT * WHERE { { ?x <http://p> ?y } UNION { } }`,                              // empty branch
		`SELECT * WHERE { { ?x <http://p> ?y } UNION { ?x <http://q> ?w } } ORDER BY ?x`, // order over union
	}
	for _, src := range bad {
		if _, err := db.Query(src); err == nil {
			t.Errorf("Query(%q) succeeded", src)
		}
	}
}

func TestCountAggregateThroughFacade(t *testing.T) {
	db := open(t)
	res, err := db.Query(`PREFIX ex: <http://ex/>
		SELECT (COUNT(*) AS ?n) WHERE { ?x a ex:Person . ?x ex:name ?name }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["n"] != rdf.NewInteger(2).String() {
		t.Errorf("COUNT(*) rows = %v", res.Rows)
	}
	// COUNT(DISTINCT ?y): alice knows bob, bob knows carol... only bob is
	// known here; distinct objects of knows = 1
	res, err = db.Query(`PREFIX ex: <http://ex/>
		SELECT (COUNT(DISTINCT ?y) AS ?n) WHERE { ?x ex:knows ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0]["n"] != rdf.NewInteger(1).String() {
		t.Errorf("COUNT(DISTINCT) = %v", res.Rows)
	}
	// COUNT over OPTIONAL ignores unbound values
	res, err = db.Query(`PREFIX ex: <http://ex/>
		SELECT (COUNT(?y) AS ?n) WHERE {
			?x a ex:Person .
			OPTIONAL { ?x ex:knows ?y }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0]["n"] != rdf.NewInteger(1).String() {
		t.Errorf("COUNT(?y) over OPTIONAL = %v", res.Rows)
	}
	// the paper's annotator query form is now directly expressible
	res, err = db.Query(`PREFIX ex: <http://ex/>
		SELECT (COUNT(*) AS ?c) WHERE { ?x a ex:Person }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0]["c"] != rdf.NewInteger(2).String() {
		t.Errorf("annotator-style count = %v", res.Rows)
	}
}

func TestCountAggregateParseErrors(t *testing.T) {
	db := open(t)
	bad := []string{
		`SELECT (COUNT(DISTINCT *) AS ?n) WHERE { ?x <http://p> ?y }`,
		`SELECT (COUNT(?zz) AS ?n) WHERE { ?x <http://p> ?y }`,
		`SELECT (COUNT(*) ?n) WHERE { ?x <http://p> ?y }`,
		`SELECT (COUNT(*) AS ?n WHERE { ?x <http://p> ?y }`,
		`ASK (COUNT(*) AS ?n) { ?x <http://p> ?y }`,
	}
	for _, src := range bad {
		if _, err := db.Query(src); err == nil {
			t.Errorf("Query(%q) succeeded", src)
		}
	}
}

func TestOpsBudgetThroughFacade(t *testing.T) {
	g := lubm.Generate(lubm.Config{Universities: 1, Seed: 9})
	db, err := rdfshapes.Load(g,
		rdfshapes.WithShapesGraph(lubm.Shapes()),
		rdfshapes.WithOpsBudget(10))
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Count(`SELECT * WHERE { ?s ?p ?o }`)
	if !errors.Is(err, rdfshapes.ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
	// tiny queries still fit the budget
	if _, err := db.Count(`PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
		SELECT * WHERE { ?x a ub:University }`); err != nil {
		t.Errorf("tiny query exceeded budget: %v", err)
	}
}

func TestPropertyPathThroughFacade(t *testing.T) {
	g := lubm.Generate(lubm.Config{Universities: 1, Seed: 9})
	db, err := rdfshapes.Load(g, rdfshapes.WithShapesGraph(lubm.Shapes()))
	if err != nil {
		t.Fatal(err)
	}
	// advisor/name path vs the explicit two-pattern form must agree
	pathCount, err := db.Count(`PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
		SELECT * WHERE { ?x a ub:GraduateStudent . ?x ub:advisor/ub:name ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	explicitCount, err := db.Count(`PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
		SELECT * WHERE { ?x a ub:GraduateStudent . ?x ub:advisor ?a . ?a ub:name ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if pathCount != explicitCount || pathCount == 0 {
		t.Errorf("path count %d != explicit count %d", pathCount, explicitCount)
	}
	// inverse path: ^teacherOf from course to teacher
	inv, err := db.Count(`PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
		SELECT * WHERE { ?c a ub:GraduateCourse . ?c ^ub:teacherOf ?t }`)
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := db.Count(`PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
		SELECT * WHERE { ?c a ub:GraduateCourse . ?t ub:teacherOf ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	if inv != fwd || inv == 0 {
		t.Errorf("inverse count %d != forward count %d", inv, fwd)
	}
}

func TestAggregateOverUnion(t *testing.T) {
	db := open(t)
	res, err := db.Query(`PREFIX ex: <http://ex/>
		SELECT (COUNT(*) AS ?n) WHERE {
			{ ?x a ex:Person }
			UNION
			{ ?x ex:knows ?y }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0]["n"] != rdf.NewInteger(3).String() {
		t.Errorf("COUNT over union = %v", res.Rows)
	}
	// distinct subjects across branches
	res, err = db.Query(`PREFIX ex: <http://ex/>
		SELECT (COUNT(DISTINCT ?x) AS ?n) WHERE {
			{ ?x a ex:Person }
			UNION
			{ ?x ex:knows ?y }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0]["n"] != rdf.NewInteger(2).String() {
		t.Errorf("COUNT DISTINCT over union = %v", res.Rows)
	}
}

func TestUnionWithFiltersAndLimit(t *testing.T) {
	db := open(t)
	res, err := db.Query(`PREFIX ex: <http://ex/>
		SELECT ?n WHERE {
			{ ?x ex:name ?n }
			UNION
			{ ?y ex:name ?n }
		} LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // 2 + 2 rows, limited to 3
		t.Errorf("limited union rows = %v", res.Rows)
	}
	// offset over union
	res, err = db.Query(`PREFIX ex: <http://ex/>
		SELECT ?n WHERE {
			{ ?x ex:name ?n }
			UNION
			{ ?y ex:name ?n }
		} OFFSET 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("offset union rows = %v", res.Rows)
	}
}

// TestUnionInScopeVariables pins SPARQL 1.1 §18.2.1: the in-scope
// variables of P1 UNION P2 are the union of the branches' variables. A
// branch leaves the variables it does not bind unbound, SELECT * lists
// every branch variable in first-appearance order, and an explicit
// projection may name a variable of one branch only.
func TestUnionInScopeVariables(t *testing.T) {
	db := open(t)
	const where = `WHERE {
			{ ?x a ex:Person . ?x ex:name ?n }
			UNION
			{ ?x ex:knows ?z }
		}`
	for _, tc := range []struct {
		sel  string
		vars []string
		rows []string // one "var=term …" line per solution, sorted
	}{
		{"*", []string{"x", "n", "z"}, []string{
			`n= x=<http://ex/alice> z=<http://ex/bob>`,
			`n="Alice" x=<http://ex/alice> z=`,
			`n="Bob" x=<http://ex/bob> z=`,
		}},
		{"?z ?x", []string{"z", "x"}, []string{
			`x=<http://ex/alice> z=`,
			`x=<http://ex/alice> z=<http://ex/bob>`,
			`x=<http://ex/bob> z=`,
		}},
		{"?n", []string{"n"}, []string{`n=`, `n="Alice"`, `n="Bob"`}},
		{"?w", []string{"w"}, []string{`w=`, `w=`, `w=`}}, // bound by no branch
	} {
		res, err := db.Query(`PREFIX ex: <http://ex/> SELECT ` + tc.sel + ` ` + where)
		if err != nil {
			t.Fatalf("SELECT %s: %v", tc.sel, err)
		}
		if strings.Join(res.Vars, " ") != strings.Join(tc.vars, " ") {
			t.Errorf("SELECT %s: vars = %v, want %v", tc.sel, res.Vars, tc.vars)
		}
		var got []string
		for _, row := range res.Rows {
			var cells []string
			for v, term := range row {
				cells = append(cells, v+"="+term)
			}
			sort.Strings(cells)
			got = append(got, strings.Join(cells, " "))
		}
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(tc.rows, "\n") {
			t.Errorf("SELECT %s: rows\n%s\nwant\n%s", tc.sel, strings.Join(got, "\n"), strings.Join(tc.rows, "\n"))
		}
	}
}

func TestEstimateCountWithFilter(t *testing.T) {
	db := open(t)
	base, err := db.EstimateCount(`PREFIX ex: <http://ex/>
		SELECT * WHERE { ?x a ex:Person . ?x ex:name ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := db.EstimateCount(`PREFIX ex: <http://ex/>
		SELECT * WHERE { ?x a ex:Person . ?x ex:name ?n . FILTER(?n != "Alice") }`)
	if err != nil {
		t.Fatal(err)
	}
	if filtered >= base {
		t.Errorf("filter selectivity not applied: %v >= %v", filtered, base)
	}
}

func TestExplainAskAndUnionQueries(t *testing.T) {
	db := open(t)
	if _, err := db.Explain(`PREFIX ex: <http://ex/> ASK { ?x ex:knows ?y }`, "SS"); err != nil {
		t.Errorf("explain ASK: %v", err)
	}
}

func TestConstructThroughFacade(t *testing.T) {
	db := open(t)
	g, err := db.Construct(`PREFIX ex: <http://ex/>
		CONSTRUCT { ?y ex:knownBy ?x }
		WHERE { ?x ex:knows ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 1 {
		t.Fatalf("constructed graph = %v", g)
	}
	tr := g[0]
	if tr.S.Value != "http://ex/bob" || tr.P.Value != "http://ex/knownBy" || tr.O.Value != "http://ex/alice" {
		t.Errorf("triple = %v", tr)
	}
	// constant template positions + dedup across solutions
	g, err = db.Construct(`PREFIX ex: <http://ex/>
		CONSTRUCT { <http://ex/graph> ex:mentions ?x }
		WHERE { ?x a ex:Person . ?x ex:name ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 2 {
		t.Errorf("constructed graph = %v", g)
	}
	// unbound OPTIONAL var in template: triple skipped for that solution
	g, err = db.Construct(`PREFIX ex: <http://ex/>
		CONSTRUCT { ?x ex:knowsSomeone ?y }
		WHERE { ?x a ex:Person . OPTIONAL { ?x ex:knows ?y } }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 1 {
		t.Errorf("optional construct graph = %v", g)
	}
	// errors
	if _, err := db.Construct(`SELECT * WHERE { ?s ?p ?o }`); err == nil {
		t.Error("Construct accepted a SELECT query")
	}
	if _, err := db.Query(`PREFIX ex: <http://ex/>
		CONSTRUCT { ?x ex:p ?y } WHERE { ?x ex:knows ?y }`); !errors.Is(err, rdfshapes.ErrConstruct) {
		t.Errorf("Query of a CONSTRUCT query: err = %v, want ErrConstruct", err)
	}
	if _, err := db.Construct("CONSTRUCT {"); err == nil {
		t.Error("Construct accepted a syntax error")
	}
}

func TestConstructLiteralSubjectSkipped(t *testing.T) {
	db := open(t)
	// ?n binds to literals, invalid as subjects: everything skipped
	g, err := db.Construct(`PREFIX ex: <http://ex/>
		CONSTRUCT { ?n ex:of ?x }
		WHERE { ?x ex:name ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 0 {
		t.Errorf("literal-subject triples emitted: %v", g)
	}
}

func TestQueryEach(t *testing.T) {
	db := open(t)
	var names []string
	err := db.QueryEach(`PREFIX ex: <http://ex/>
		SELECT ?n WHERE { ?x a ex:Person . ?x ex:name ?n }`,
		func(row map[string]string) bool {
			names = append(names, row["n"])
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Errorf("streamed rows = %v", names)
	}
	// early stop
	count := 0
	err = db.QueryEach(`SELECT * WHERE { ?s ?p ?o }`, func(map[string]string) bool {
		count++
		return false
	})
	if err != nil || count != 1 {
		t.Errorf("early stop: count=%d err=%v", count, err)
	}
	// fallback path (DISTINCT)
	count = 0
	err = db.QueryEach(`PREFIX ex: <http://ex/>
		SELECT DISTINCT ?x WHERE { ?x a ex:Person . ?x ex:name ?n }`,
		func(map[string]string) bool {
			count++
			return true
		})
	if err != nil || count != 2 {
		t.Errorf("distinct fallback: count=%d err=%v", count, err)
	}
	if err := db.QueryEach("bogus", func(map[string]string) bool { return true }); err == nil {
		t.Error("QueryEach accepted a syntax error")
	}
}

func TestCollectorTracesQueries(t *testing.T) {
	c := obsv.NewCollector(8)
	db := open(t)
	db.SetCollector(c)
	if db.Collector() != c {
		t.Fatal("Collector accessor does not return the configured collector")
	}
	if _, err := db.Query(`PREFIX ex: <http://ex/>
		SELECT ?x ?n WHERE { ?x a ex:Person . ?x ex:name ?n }`); err != nil {
		t.Fatal(err)
	}
	if got := c.TraceCount(); got != 1 {
		t.Fatalf("TraceCount = %d, want 1", got)
	}
	tr := c.Recent(1)[0]
	if tr.Planner != "SS" {
		t.Errorf("trace planner = %q, want SS (type-defined pattern)", tr.Planner)
	}
	if len(tr.Patterns) != 2 {
		t.Fatalf("trace has %d pattern entries, want 2", len(tr.Patterns))
	}
	for i, p := range tr.Patterns {
		if p.Pattern == "" || p.Estimated <= 0 || p.Actual <= 0 || p.QError < 1 {
			t.Errorf("pattern %d incomplete: %+v", i, p)
		}
	}
	if tr.Rows != 2 || tr.WallNanos <= 0 || tr.Ops <= 0 {
		t.Errorf("trace rows/wall/ops = %d/%d/%d", tr.Rows, tr.WallNanos, tr.Ops)
	}
	if !strings.Contains(tr.Query, "ex:Person") {
		t.Errorf("trace query = %q", tr.Query)
	}

	// Ask and Count also trace.
	if _, err := db.Ask(`ASK { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Count(`SELECT * WHERE { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if got := c.TraceCount(); got != 3 {
		t.Errorf("TraceCount after Ask+Count = %d, want 3", got)
	}

	// And the collector renders all of it as Prometheus text.
	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`rdfshapes_queries_total{planner="SS",status="ok"}`,
		`rdfshapes_plan_qerror_count{planner="SS"} `,
		`rdfshapes_query_duration_seconds_count{planner="GS"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestSetCollector(t *testing.T) {
	db := open(t)
	if db.Collector() != nil {
		t.Fatal("collector should default to nil")
	}
	c := obsv.NewCollector(4)
	db.SetCollector(c)
	if _, err := db.Query(`SELECT * WHERE { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if c.TraceCount() != 1 {
		t.Errorf("TraceCount = %d, want 1", c.TraceCount())
	}
	db.SetCollector(nil)
	if _, err := db.Query(`SELECT * WHERE { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if c.TraceCount() != 1 {
		t.Errorf("detached collector gained traces: %d", c.TraceCount())
	}
}
