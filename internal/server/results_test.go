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
	"sync"
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

// assertWireMatchesReference serves src twice through h — the second
// time every term comes from the handler's term cache — and requires
// both bodies to equal the reference encoder's.
func assertWireMatchesReference(t *testing.T, db *rdfshapes.DB, h http.Handler, name, src string) {
	t.Helper()
	want := refEncode(t, db, src)
	for _, pass := range []string{"cold", "warm"} {
		rec := serve(h, src)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s (%s): status %d: %s", name, pass, rec.Code, rec.Body)
		}
		if msg := bodyDiff(rec.Body.Bytes(), want); msg != "" {
			t.Fatalf("%s (%s): %s", name, pass, msg)
		}
	}
}

// bodyDiff describes where got first differs from the reference body
// want, or returns "" when they are equal.
func bodyDiff(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-60)
	return fmt.Sprintf("body differs from the reference encoder at byte %d (%d vs %d bytes)\n got: …%s\nwant: …%s",
		i, len(got), len(want), got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
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

// handcraftedGraph is the dataset of TestWireBytesMatchReferenceHandcrafted.
func handcraftedGraph() rdf.Graph {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	return rdf.Graph{
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
}

// TestWireBytesMatchReferenceHandcrafted covers what LUBM's tidy IRIs
// and names do not: every character class JSON escapes, every literal
// flavour, unbound cells, and each solution-modifier and answer form.
func TestWireBytesMatchReferenceHandcrafted(t *testing.T) {
	g := handcraftedGraph()
	queries := map[string]string{
		"all":            `SELECT * WHERE { ?s <http://ex/v> ?o }`,
		"reordered":      `SELECT ?o ?s WHERE { ?s <http://ex/v> ?o }`,
		"projectedTwice": `SELECT ?s ?s WHERE { ?s <http://ex/v> ?o }`,
		"optional":       `SELECT ?s ?o ?w WHERE { ?s <http://ex/v> ?o . OPTIONAL { ?s <http://ex/w> ?w } }`,
		"allUnbound":     `SELECT ?w WHERE { ?s <http://ex/v> ?o . OPTIONAL { ?s <http://ex/w> ?w } }`,
		"union":          `SELECT DISTINCT ?o WHERE { { ?s <http://ex/u> ?o } UNION { ?s <http://ex/u2> ?o } } OFFSET 1 LIMIT 1`,
		"unionStar":      `SELECT * WHERE { { ?s <http://ex/u> ?o } UNION { ?s <http://ex/u2> ?o } }`,
		"unionDisjoint":  `SELECT ?s ?o ?x WHERE { { ?s <http://ex/u> ?o } UNION { ?s <http://ex/u2> ?x } }`,
		"unionDisjoint*": `SELECT * WHERE { { ?s <http://ex/w> ?w } UNION { ?s <http://ex/u2> ?x } }`,
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
		if err := writeBindings(io.Discard, b, newTermCache(b.Dict())); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 500 {
		t.Errorf("encoding 10000 rows over 50 distinct terms took %.0f allocations, want < 500", allocs)
	}
}

// TestWarmEncodeAllocsIgnoreDistinctTerms: once its terms are cached, an
// answer is encoded with a fixed handful of allocations however many
// distinct terms it shows.
func TestWarmEncodeAllocsIgnoreDistinctTerms(t *testing.T) {
	var g rdf.Graph
	s, p := rdf.NewIRI("http://ex/s"), rdf.NewIRI("http://ex/p")
	for i := 0; i < 10000; i++ {
		g = append(g, rdf.Triple{S: s, P: p, O: rdf.NewLiteral(fmt.Sprintf("value %d", i))})
	}
	db, err := rdfshapes.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	b, err := db.SelectCtx(context.Background(), `SELECT ?o WHERE { <http://ex/s> <http://ex/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 10000 {
		t.Fatalf("rows = %d, want 10000", len(b.Rows))
	}
	terms := newTermCache(b.Dict())
	allocs := testing.AllocsPerRun(5, func() {
		if err := writeBindings(io.Discard, b, terms); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 50 {
		t.Errorf("a warm encode of 10000 distinct terms took %.0f allocations, want < 50", allocs)
	}
}

// TestTermCacheHoldsEachTermOnce: a handler that has served every term
// of a dataset, some of them many times, holds exactly one fragment per
// dictionary term, and its byte gauge is their summed length.
func TestTermCacheHoldsEachTermOnce(t *testing.T) {
	db, err := rdfshapes.Load(handcraftedGraph())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	h := New(db)
	for i := 0; i < 2; i++ {
		for _, src := range []string{
			`SELECT * WHERE { ?s ?p ?o }`,
			`SELECT ?o ?s WHERE { ?s <http://ex/u> ?o . ?s2 <http://ex/u> ?o }`,
		} {
			if rec := serve(h, src); rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
	}
	b, err := db.SelectCtx(context.Background(), `SELECT * WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	c := h.terms.Load()
	if c == nil || c.dict != b.Dict() {
		t.Fatal("the handler holds no cache for the answers' dictionary")
	}
	if held, n := assertGaugesMatchIndex(t, c), b.Dict().Len(); held != n {
		t.Errorf("cache holds %d fragments, want one per dictionary term, %d", held, n)
	}
}

// assertGaugesMatchIndex checks that c's gauges count what its index
// holds — each term encoded once, bytes the fragments' summed length —
// and returns the number of fragments held.
func assertGaugesMatchIndex(t *testing.T, c *termCache) int {
	t.Helper()
	held, size := 0, 0
	index := c.table()
	for i := range index {
		if p := index[i].Load(); p != nil {
			held++
			size += len(*p)
		}
	}
	if c.terms.Load() != int64(held) {
		t.Errorf("%d terms encoded for %d fragments held", c.terms.Load(), held)
	}
	if c.bytes.Load() != int64(size) {
		t.Errorf("byte gauge %d, want the fragments' summed length %d", c.bytes.Load(), size)
	}
	return held
}

// TestWireBytesAcrossDictionaryGrowth: terms an update interns after the
// cache's index was sized grow the index and encode like every other.
func TestWireBytesAcrossDictionaryGrowth(t *testing.T) {
	db, err := rdfshapes.Load(handcraftedGraph())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	h := New(db)
	const src = `SELECT ?s ?o WHERE { ?s <http://ex/v> ?o }`
	assertWireMatchesReference(t, db, h, "before", src)
	c := h.terms.Load()
	sized := len(c.table())

	var ins strings.Builder
	ins.WriteString("INSERT DATA {")
	for i := 0; i < 2*sized; i++ {
		fmt.Fprintf(&ins, ` <http://ex/new%d> <http://ex/v> "fresh \"%d\" <&>" .`, i, i)
	}
	ins.WriteString(" }")
	if _, err := db.UpdateCtx(context.Background(), ins.String()); err != nil {
		t.Fatal(err)
	}
	assertWireMatchesReference(t, db, h, "after", src)
	if h.terms.Load() != c {
		t.Fatal("an update replaced the handler's term cache")
	}
	if n := len(c.table()); n <= sized {
		t.Errorf("index still has %d entries after the dictionary grew past %d", n, sized)
	}
	assertGaugesMatchIndex(t, c)
}

// TestConcurrentResponsesShareTermCache: eight goroutines serve
// overlapping LUBM answers on one handler at once, filling its cold
// cache side by side and copying each other's fragments; every body is
// the reference encoder's. Run under -race.
func TestConcurrentResponsesShareTermCache(t *testing.T) {
	db, err := rdfshapes.Load(lubm.Generate(lubm.Config{Universities: 1, Seed: 7}),
		rdfshapes.WithShapesGraph(lubm.Shapes()), rdfshapes.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	h := New(db)
	var queries []workloads.Query
	for _, name := range []string{"S1", "S2", "C0", "C2", "Q2", "Q4", "Q9", "F1"} {
		wq, ok := workloads.ByName(workloads.LUBM(), name)
		if !ok {
			t.Fatalf("no LUBM workload query %s", name)
		}
		queries = append(queries, wq)
	}
	want := make([][]byte, len(queries))
	for i, wq := range queries {
		want[i] = refEncode(t, db, wq.Text)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ { // each goroutine: four queries, starting at its own
				i := (g + k) % len(queries)
				rec := serve(h, queries[i].Text)
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d", queries[i].Name, rec.Code)
					continue
				}
				if msg := bodyDiff(rec.Body.Bytes(), want[i]); msg != "" {
					t.Errorf("goroutine %d, %s: %s", g, queries[i].Name, msg)
				}
			}
		}()
	}
	wg.Wait()
	assertGaugesMatchIndex(t, h.terms.Load())
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
