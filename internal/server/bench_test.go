package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"rdfshapes"
	"rdfshapes/internal/datagen/lubm"
	"rdfshapes/internal/workloads"
)

// discardWriter is a ResponseWriter that keeps the status and counts the
// body bytes, nothing else: a served connection hands each write to the
// socket, so a benchmark of the handler should not pay for a recorder
// growing a buffer to the size of the whole body.
type discardWriter struct {
	header http.Header
	code   int
	n      int64
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += int64(len(p))
	return len(p), nil
}

// BenchmarkSparqlHandler times the whole handler — admission, parse,
// plan, execute, encode — writing into a byte-counting discardWriter,
// over the benchmark rig's dataset and parallelism, for one small
// answer, four join answers of 10² to 10⁴·⁵ rows whose cost is merge and
// encoding, and two (C1, Q2) whose cost is nested-loop index probes.
// Every query is served once before timing, so encoded terms come from
// the handler's term cache as they do on a server that has been up for
// a while.
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
	w := &discardWriter{header: http.Header{}}
	serveOne := func(b *testing.B, target string) {
		clear(w.header)
		w.code, w.n = 0, 0
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	for _, wq := range queries {
		target := "/sparql?query=" + url.QueryEscape(wq.Text)
		b.Run(wq.Name, func(b *testing.B) {
			serveOne(b, target)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveOne(b, target)
			}
			b.SetBytes(w.n)
		})
	}
}
