package rdfshapes

import (
	"reflect"
	"strings"
	"testing"

	"rdfshapes/internal/rdf"
)

const unionDistinctQuery = `SELECT DISTINCT ?x ?y WHERE { { ?x <http://x/p1> ?y } UNION { ?x <http://x/p2> ?y } }`

// TestUnionDistinctNoCollision is the UNION-dedup regression test:
// rendered terms can contain any byte (blank-node labels are not
// escaped), so string keys joined on a separator collided the two
// distinct rows below — both read "_:b\x00_:c\x00\"\"". UNION rows are
// deduplicated on their ID tuples, which cannot collide.
func TestUnionDistinctNoCollision(t *testing.T) {
	db, err := Load(rdf.Graph{
		{S: rdf.NewBlank("b\x00_:c"), P: rdf.NewIRI("http://x/p1"), O: rdf.NewLiteral("")},
		{S: rdf.NewBlank("b"), P: rdf.NewIRI("http://x/p2"), O: rdf.NewBlank("c\x00\"\"")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.Query(unionDistinctQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("DISTINCT collapsed 2 distinct rows to %d — separator collision", len(res.Rows))
	}
}

// TestUnionDistinctStillDedupes pins that genuinely equal rows from
// different branches still collapse.
func TestUnionDistinctStillDedupes(t *testing.T) {
	a, v, w := rdf.NewIRI("http://x/a"), rdf.NewLiteral("v"), rdf.NewLiteral("w")
	db, err := Load(rdf.Graph{
		{S: a, P: rdf.NewIRI("http://x/p1"), O: v},
		{S: a, P: rdf.NewIRI("http://x/p2"), O: v},
		{S: a, P: rdf.NewIRI("http://x/p2"), O: w},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.Query(unionDistinctQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

// TestWithParallelismMatchesSerial pins the facade determinism contract:
// the same query under WithParallelism(4) and WithParallelism(1) returns
// identical rows in identical order.
func TestWithParallelismMatchesSerial(t *testing.T) {
	nt := crossProductNT(12)
	serialDB, err := LoadNTriples(strings.NewReader(nt), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	defer serialDB.Close()
	parDB, err := LoadNTriples(strings.NewReader(nt), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	defer parDB.Close()
	if got := parDB.Parallelism(); got != 4 {
		t.Fatalf("Parallelism() = %d, want 4", got)
	}

	for _, src := range []string{
		crossQuery,
		`SELECT * WHERE { ?a <http://x/p1> ?b }`,
		`SELECT ?a WHERE { { ?a <http://x/p1> ?b } UNION { ?a <http://x/p2> ?b } }`,
	} {
		want, err := serialDB.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parDB.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Rows, got.Rows) {
			t.Errorf("query %q: parallel rows differ from serial (%d vs %d rows)",
				src, len(got.Rows), len(want.Rows))
		}
	}

	n, err := parDB.Count(crossQuery)
	if err != nil {
		t.Fatal(err)
	}
	if n != 12*12*12 {
		t.Errorf("Count = %d, want %d", n, 12*12*12)
	}
}

// TestWithParallelismRowBudgetTruncates mirrors the serial MaxRows
// contract under parallel execution: exactly MaxRows rows, Truncated.
func TestWithParallelismRowBudgetTruncates(t *testing.T) {
	db, err := LoadNTriples(strings.NewReader(crossProductNT(20)),
		WithParallelism(4), WithLimits(Limits{MaxRows: 5}))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.Query(crossQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("result not marked Truncated")
	}
	if len(res.Rows) != 5 {
		t.Errorf("rows = %d, want 5", len(res.Rows))
	}
}

// TestActiveParallelWorkersIdle pins the gauge's idle value.
func TestActiveParallelWorkersIdle(t *testing.T) {
	if n := ActiveParallelWorkers(); n != 0 {
		t.Errorf("ActiveParallelWorkers = %d while idle, want 0", n)
	}
}
