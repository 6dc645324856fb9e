package rdfshapes

import (
	"context"
	"reflect"
	"testing"

	"rdfshapes/internal/datagen/lubm"
	"rdfshapes/internal/engine"
	"rdfshapes/internal/rdf"
	"rdfshapes/internal/sparql"
	"rdfshapes/internal/workloads"
)

// TestBindingsMapsMatchesMaterialize pins Bindings.Maps against
// engine.Materialize — the rendering the benchmark rig's leaves and the
// engine's own tests use — on the same snapshot and plan: every LUBM
// workload query, the extended-operator ones that are a single BGP, and
// each solution modifier.
func TestBindingsMapsMatchesMaterialize(t *testing.T) {
	db, err := Load(lubm.Generate(lubm.Config{Universities: 1, Seed: 7}), WithShapesGraph(lubm.Shapes()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const prefix = `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> `
	queries := append(workloads.LUBM(), workloads.LUBMExtended()...)
	for name, text := range map[string]string{
		"distinct":   `SELECT DISTINCT ?d WHERE { ?x a ub:FullProfessor . ?x ub:worksFor ?d }`,
		"orderBy":    `SELECT ?x ?n WHERE { ?x a ub:FullProfessor . ?x ub:name ?n } ORDER BY DESC(?n) ?x`,
		"window":     `SELECT ?n WHERE { ?x a ub:FullProfessor . ?x ub:name ?n } ORDER BY ?n OFFSET 3 LIMIT 5`,
		"pastTheEnd": `SELECT ?n WHERE { ?x a ub:FullProfessor . ?x ub:name ?n } OFFSET 100000`,
		"optional":   `SELECT ?x ?a WHERE { ?x a ub:FullProfessor . OPTIONAL { ?s ub:advisor ?x . ?s ub:name ?a } } ORDER BY ?a`,
	} {
		queries = append(queries, workloads.Query{Name: name, Text: prefix + text})
	}
	for _, wq := range queries {
		q, err := sparql.Parse(wq.Text)
		if err != nil {
			t.Fatalf("%s: %v", wq.Name, err)
		}
		if len(q.UnionGroups) > 0 || q.Aggregate != nil {
			continue // not one BGP: Materialize has no counterpart
		}
		b, err := db.SelectCtx(context.Background(), wq.Text)
		if err != nil {
			t.Fatalf("%s: %v", wq.Name, err)
		}
		v := db.view()
		er, err := v.exec(wq.Text, v.plan(q), engine.Options{
			Filters: q.Filters, Optionals: q.Optionals, OptionalFilters: q.OptionalFilters})
		if err != nil {
			t.Fatalf("%s: %v", wq.Name, err)
		}
		want, err := engine.Materialize(v.snap, q, er)
		if err != nil {
			t.Fatalf("%s: %v", wq.Name, err)
		}
		if got := b.Maps(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Maps() has %d rows, Materialize %d, or their contents differ", wq.Name, len(got), len(want))
		}
	}
}

// TestConstructKeepsTermsNTriplesCannotRoundTrip: templates are
// instantiated from the bound terms themselves. They used to be rendered
// to N-Triples and parsed back, and a term whose rendering does not parse
// — here an IRI containing '>' — silently lost its triples.
func TestConstructKeepsTermsNTriplesCannotRoundTrip(t *testing.T) {
	odd := rdf.NewIRI("http://x/o>x")
	db, err := Load(rdf.Graph{{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: odd}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	g, err := db.Construct(`CONSTRUCT { ?s <http://x/q> ?o } WHERE { ?s <http://x/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 1 || g[0].O != odd {
		t.Fatalf("constructed %v, want one triple with object %v", g, odd)
	}
}

// TestCountAnswerStaysOutOfTheDictionary: the number a COUNT answers is
// no term of the dataset, and answering must not make it one.
func TestCountAnswerStaysOutOfTheDictionary(t *testing.T) {
	db, err := Load(rdf.Graph{
		{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://x/p"), O: rdf.NewLiteral("v")},
		{S: rdf.NewIRI("http://x/b"), P: rdf.NewIRI("http://x/p"), O: rdf.NewLiteral("v")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dict := db.snapshotView().Dict()
	before := dict.Len()
	for src, want := range map[string]string{
		`SELECT (COUNT(*) AS ?n) WHERE { ?s <http://x/p> ?o }`:           "2",
		`SELECT (COUNT(?o) AS ?n) WHERE { ?s <http://x/p> ?o }`:          "2",
		`SELECT (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s <http://x/p> ?o }`: "1",
	} {
		b, err := db.SelectCtx(context.Background(), src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(b.Rows) != 1 || len(b.Vars) != 1 {
			t.Fatalf("%s: %d rows × %d vars, want 1 × 1", src, len(b.Rows), len(b.Vars))
		}
		if got := b.Term(b.Rows[0][b.Cols[0]]); got.Value != want || got.Datatype != rdf.XSDInteger {
			t.Errorf("%s = %v, want %s", src, got, want)
		}
	}
	if after := dict.Len(); after != before {
		t.Errorf("dictionary grew from %d to %d terms answering COUNT queries", before, after)
	}
}
