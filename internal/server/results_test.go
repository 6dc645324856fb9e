package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"rdfshapes"
	"rdfshapes/internal/datagen/lubm"
	"rdfshapes/internal/rdf"
	"rdfshapes/internal/workloads"
)

// The reference encoder: the /sparql bindings path as it stood before
// the typed writer replaced it — every cell rendered to N-Triples by
// QueryCtx, parsed back, collected into one map per row and handed to
// reflection-driven encoding/json. Kept verbatim so the wire format is
// pinned byte for byte against an independent implementation.

type refTerm struct {
	Type     string `json:"type"` // uri | literal | bnode
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

type refResults struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results *struct {
		Bindings []map[string]refTerm `json:"bindings"`
	} `json:"results,omitempty"`
	Boolean   *bool `json:"boolean,omitempty"`
	Truncated bool  `json:"truncated,omitempty"`
}

func refToTerm(t rdf.Term) refTerm {
	switch t.Kind {
	case rdf.IRI:
		return refTerm{Type: "uri", Value: t.Value}
	case rdf.Blank:
		return refTerm{Type: "bnode", Value: t.Value}
	default:
		jt := refTerm{Type: "literal", Value: t.Value, Lang: t.Lang}
		if t.Lang == "" && t.Datatype != "" && t.Datatype != rdf.XSDString {
			jt.Datatype = t.Datatype
		}
		return jt
	}
}

func refEncode(t testing.TB, db *rdfshapes.DB, src string) []byte {
	t.Helper()
	res, err := db.Query(src)
	if err != nil {
		t.Fatalf("reference Query(%q): %v", src, err)
	}
	var out refResults
	if res.Ask {
		ok := len(res.Rows) > 0
		out.Boolean = &ok
	} else {
		out.Head.Vars = res.Vars
		out.Truncated = res.Truncated
		out.Results = &struct {
			Bindings []map[string]refTerm `json:"bindings"`
		}{Bindings: make([]map[string]refTerm, 0, len(res.Rows))}
		for _, row := range res.Rows {
			b := map[string]refTerm{}
			for v, s := range row {
				if s == "" {
					continue
				}
				term, err := rdf.ParseTerm(s)
				if err != nil {
					t.Fatalf("reference: bad term %q: %v", s, err)
				}
				b[v] = refToTerm(term)
			}
			out.Results.Bindings = append(out.Results.Bindings, b)
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serve runs one /sparql request through h on a recorder.
func serve(h http.Handler, src string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(src), nil))
	return rec
}

func assertWireMatchesReference(t *testing.T, db *rdfshapes.DB, h http.Handler, name, src string) {
	t.Helper()
	rec := serve(h, src)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
	}
	got, want := rec.Body.Bytes(), refEncode(t, db, src)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-60)
		t.Fatalf("%s: body differs from the reference encoder at byte %d (%d vs %d bytes)\n got: …%s\nwant: …%s",
			name, i, len(got), len(want), got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
	}
}

// TestWireBytesMatchReferenceLUBM: every LUBM workload query answers
// byte-identically to the reference encoder, whichever executor
// produced the rows.
func TestWireBytesMatchReferenceLUBM(t *testing.T) {
	g := lubm.Generate(lubm.Config{Universities: 1, Seed: 7})
	for _, cfg := range []struct {
		name string
		opt  rdfshapes.Option
	}{
		{"serial", rdfshapes.WithParallelism(1)},
		{"parallel2", rdfshapes.WithParallelism(2)},
		{"shards4", rdfshapes.WithShards(4)},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			db, err := rdfshapes.Load(g, rdfshapes.WithShapesGraph(lubm.Shapes()), cfg.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			h := New(db)
			for _, wq := range workloads.LUBM() {
				assertWireMatchesReference(t, db, h, wq.Name, wq.Text)
			}
			// Shards are in-process only: no configuration serves triple
			// scans over HTTP.
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/shard/scan?p=x", nil))
			if rec.Code != http.StatusNotFound {
				t.Errorf("/shard/scan: status %d, want 404", rec.Code)
			}
		})
	}
}

// TestWireBytesMatchReferenceHandcrafted covers what LUBM's tidy IRIs
// and names do not: every character class JSON escapes, every literal
// flavour, unbound cells, and each solution-modifier and answer form.
func TestWireBytesMatchReferenceHandcrafted(t *testing.T) {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	g := rdf.Graph{
		{S: ex("s1"), P: ex("v"), O: rdf.NewLiteral(`quote " backslash \ done`)},
		{S: ex("s2"), P: ex("v"), O: rdf.NewLiteral("newline \n tab \t ctrl \x01 done")},
		{S: ex("s3"), P: ex("v"), O: rdf.NewLiteral("sep \u2028 html <>& done")},
		{S: ex("s4"), P: ex("v"), O: rdf.NewLangLiteral("bonjour", "fr")},
		{S: ex("s5"), P: ex("v"), O: rdf.NewInteger(42)},
		{S: ex("s6"), P: ex("v"), O: rdf.NewTypedLiteral("explicit", rdf.XSDString)},
		{S: ex("s7"), P: ex("v"), O: rdf.NewBlank("b0")},
		{S: ex("s8"), P: ex("v"), O: ex("o&x=1")},
		{S: ex("s1"), P: ex("w"), O: rdf.NewLiteral("only s1 has w")},
		{S: ex("s1"), P: ex("u"), O: ex("shared")},
		{S: ex("s2"), P: ex("u"), O: ex("shared")},
		{S: ex("s3"), P: ex("u2"), O: ex("shared")},
		{S: ex("s4"), P: ex("u2"), O: ex("other")},
	}
	queries := map[string]string{
		"all":            `SELECT * WHERE { ?s <http://ex/v> ?o }`,
		"reordered":      `SELECT ?o ?s WHERE { ?s <http://ex/v> ?o }`,
		"projectedTwice": `SELECT ?s ?s WHERE { ?s <http://ex/v> ?o }`,
		"optional":       `SELECT ?s ?o ?w WHERE { ?s <http://ex/v> ?o . OPTIONAL { ?s <http://ex/w> ?w } }`,
		"allUnbound":     `SELECT ?w WHERE { ?s <http://ex/v> ?o . OPTIONAL { ?s <http://ex/w> ?w } }`,
		"union":          `SELECT DISTINCT ?o WHERE { { ?s <http://ex/u> ?o } UNION { ?s <http://ex/u2> ?o } } OFFSET 1 LIMIT 1`,
		"unionStar":      `SELECT * WHERE { { ?s <http://ex/u> ?o } UNION { ?s <http://ex/u2> ?o } }`,
		"orderDesc":      `SELECT ?s ?o WHERE { ?s <http://ex/v> ?o } ORDER BY DESC(?o)`,
		"orderWindow":    `SELECT DISTINCT ?o WHERE { ?s <http://ex/v> ?o } ORDER BY ?s OFFSET 2 LIMIT 3`,
		"countStar":      `SELECT (COUNT(*) AS ?n) WHERE { ?s <http://ex/v> ?o }`,
		"countDistinct":  `SELECT (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s ?p ?o }`,
		"empty":          `SELECT ?s WHERE { ?s <http://ex/nosuch> ?o }`,
		"noVars":         `SELECT * WHERE { <http://ex/s1> <http://ex/u> <http://ex/shared> }`,
		"askTrue":        `ASK { ?s <http://ex/w> ?o }`,
		"askFalse":       `ASK { ?s <http://ex/nosuch> ?o }`,
	}
	for _, cfg := range []struct {
		name string
		opts []rdfshapes.Option
	}{
		{"complete", nil},
		// Serial: which rows a parallel run keeps under a row budget depends
		// on worker timing, and the two encoders each run the query.
		{"truncated", []rdfshapes.Option{rdfshapes.WithLimits(rdfshapes.Limits{MaxRows: 3}), rdfshapes.WithParallelism(1)}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			db, err := rdfshapes.Load(g, cfg.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			h := New(db)
			for name, src := range queries {
				assertWireMatchesReference(t, db, h, name, src)
			}
			if cfg.name == "truncated" {
				if body := serve(h, queries["all"]).Body.String(); !strings.HasSuffix(body, `]},"truncated":true}`+"\n") {
					t.Errorf("truncated answer does not say so: …%s", body[max(0, len(body)-40):])
				}
			}
		})
	}
}

// crossDB serves a dataset on which crossQuery answers 20·20·5·5 =
// 10 000 rows built from 50 distinct terms — the combinatorial
// repetition of join answers, distilled.
func crossDB(t testing.TB) (*rdfshapes.DB, string) {
	t.Helper()
	var g rdf.Graph
	s := rdf.NewIRI("http://ex/s")
	for p, n := range []int{20, 20, 5, 5} {
		for i := 0; i < n; i++ {
			g = append(g, rdf.Triple{S: s, P: rdf.NewIRI(fmt.Sprintf("http://ex/p%d", p)),
				O: rdf.NewLiteral(fmt.Sprintf("value %d of predicate %d", i, p))})
		}
	}
	db, err := rdfshapes.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, `SELECT ?a ?b ?c ?d WHERE { <http://ex/s> <http://ex/p0> ?a . <http://ex/s> <http://ex/p1> ?b . <http://ex/s> <http://ex/p2> ?c . <http://ex/s> <http://ex/p3> ?d }`
}

// TestEncodeAllocsFollowDistinctTerms pins the point of the typed path:
// encoding allocates per distinct term, not per row or per cell.
func TestEncodeAllocsFollowDistinctTerms(t *testing.T) {
	db, src := crossDB(t)
	b, err := db.SelectCtx(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 10000 {
		t.Fatalf("rows = %d, want 10000", len(b.Rows))
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := writeBindings(io.Discard, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 500 {
		t.Errorf("encoding 10000 rows over 50 distinct terms took %.0f allocations, want < 500", allocs)
	}
}

// brokenPipe is a ResponseWriter whose client goes away after limit
// bytes: the write that crosses the limit and every later one fail.
type brokenPipe struct {
	header        http.Header
	limit         int
	accepted      int
	failedWrites  int
	offeredOnFail int
}

func (w *brokenPipe) Header() http.Header { return w.header }
func (w *brokenPipe) WriteHeader(int)     {}
func (w *brokenPipe) Write(p []byte) (int, error) {
	if w.failedWrites > 0 || w.accepted+len(p) > w.limit {
		w.failedWrites++
		w.offeredOnFail += len(p)
		return 0, errors.New("write: broken pipe")
	}
	w.accepted += len(p)
	return len(p), nil
}

// TestVanishedClientStopsEncoding: once a write fails the handler stops
// encoding (no further chunk is offered), counts a client cancellation,
// aborts the connection instead of completing the response, and gives
// its admission slot back.
func TestVanishedClientStopsEncoding(t *testing.T) {
	db, src := crossDB(t)
	h := NewWithConfig(db, Config{MaxConcurrent: 1})
	full := serve(h, src).Body.Len()
	if full < 4*chunkBytes {
		t.Fatalf("answer is %d bytes, too small to span several chunks", full)
	}
	before := h.cancels.Value()

	w := &brokenPipe{header: http.Header{}, limit: chunkBytes + chunkBytes/2}
	var aborted any
	func() {
		defer func() { aborted = recover() }()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(src), nil))
	}()
	if aborted != http.ErrAbortHandler {
		t.Fatalf("handler finished with %v, want the http.ErrAbortHandler panic", aborted)
	}
	if w.failedWrites != 1 {
		t.Errorf("%d writes were attempted at or after the failure, want exactly 1", w.failedWrites)
	}
	if sent := w.accepted + w.offeredOnFail; sent > w.limit+2*chunkBytes {
		t.Errorf("%d of %d bytes were encoded for a client gone after %d", sent, full, w.limit)
	}
	if got := h.cancels.Value() - before; got != 1 {
		t.Errorf("%s moved by %v, want 1", MetricClientCancellations, got)
	}
	if len(h.sem) != 0 || h.inFlight.Load() != 0 {
		t.Errorf("admission slot not released: %d held, %d in flight", len(h.sem), h.inFlight.Load())
	}
	if rec := serve(h, src); rec.Code != http.StatusOK || rec.Body.Len() != full {
		t.Errorf("next request on the one-slot server: status %d, %d bytes", rec.Code, rec.Body.Len())
	}
}

// BenchmarkSparqlHandler times the whole handler — admission, parse,
// plan, execute, encode — on a recorder, over the benchmark rig's
// dataset and parallelism, for one small answer, four join answers of
// 10² to 10⁴·⁵ rows whose cost is merge and encoding, and two (C1, Q2)
// whose cost is nested-loop index probes.
func BenchmarkSparqlHandler(b *testing.B) {
	db, err := rdfshapes.Load(lubm.Generate(lubm.Config{Universities: 5, Seed: 7}),
		rdfshapes.WithShapesGraph(lubm.Shapes()), rdfshapes.WithParallelism(2))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	h := New(db)
	queries := []workloads.Query{{
		Name: "lookup",
		Text: `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
			SELECT ?n ?u WHERE { <http://www.lubm.example/U0/Dept0> ub:name ?n . <http://www.lubm.example/U0/Dept0> ub:subOrganizationOf ?u }`,
	}}
	for _, name := range []string{"Q9", "S2", "C0", "S3", "C1", "Q2"} {
		wq, ok := workloads.ByName(workloads.LUBM(), name)
		if !ok {
			b.Fatalf("no LUBM workload query %s", name)
		}
		queries = append(queries, wq)
	}
	for _, wq := range queries {
		target := "/sparql?query=" + url.QueryEscape(wq.Text)
		b.Run(wq.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
				b.SetBytes(int64(rec.Body.Len()))
			}
		})
	}
}
