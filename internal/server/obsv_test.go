package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"rdfshapes"
	"rdfshapes/internal/obsv"
)

func getBody(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func serveQueries(t *testing.T, srv string, queries ...string) {
	t.Helper()
	for _, q := range queries {
		resp, err := http.Get(srv + "/sparql?query=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newServer(t)
	serveQueries(t, srv.URL,
		`PREFIX ex: <http://ex/> SELECT ?x ?n WHERE { ?x a ex:Person . ?x ex:name ?n }`,
		`SELECT * WHERE { ?s ?p ?o }`,
		`NOT SPARQL`, // parse error: rejected before execution, not traced
	)
	status, body, hdr := getBody(t, srv.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE rdfshapes_queries_total counter",
		"# TYPE rdfshapes_query_duration_seconds histogram",
		"# TYPE rdfshapes_plan_qerror histogram",
		`rdfshapes_queries_total{planner="SS",status="ok"} 1`,
		`rdfshapes_queries_total{planner="GS",status="ok"} 1`,
		`le="+Inf"`,
		"rdfshapes_index_rows_visited_total",
		"rdfshapes_intermediate_results_total",
		"rdfshapes_result_rows_total",
		"rdfshapes_traces_recorded_total 2",
		"rdfshapes_dataset_triples 6",
		"rdfshapes_dataset_node_shapes",
		"rdfshapes_dataset_property_shapes",
		"rdfshapes_trace_buffer_capacity",
		// SELECT * over every triple has shown all ten terms, whose
		// SPARQL-JSON objects are 475 bytes together.
		"rdfshapes_term_cache_terms 10",
		"rdfshapes_term_cache_bytes 475",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

func TestTraceRecentEndpoint(t *testing.T) {
	srv := newServer(t)
	serveQueries(t, srv.URL,
		`PREFIX ex: <http://ex/> SELECT ?x ?n WHERE { ?x a ex:Person . ?x ex:name ?n }`,
		`SELECT * WHERE { ?s ?p ?o }`,
	)
	var out struct {
		Total  uint64 `json:"total"`
		Traces []struct {
			ID       uint64 `json:"id"`
			Query    string `json:"query"`
			Planner  string `json:"planner"`
			Plan     string `json:"plan"`
			Patterns []struct {
				Pattern   string  `json:"pattern"`
				Estimated float64 `json:"estimated"`
				Actual    int64   `json:"actual"`
				QError    float64 `json:"qerror"`
			} `json:"patterns"`
			Rows      int64 `json:"rows"`
			Ops       int64 `json:"ops"`
			WallNanos int64 `json:"wallNanos"`
		} `json:"traces"`
	}
	resp := getJSON(t, srv.URL+"/trace/recent", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Total != 2 || len(out.Traces) != 2 {
		t.Fatalf("total = %d, traces = %d, want 2/2", out.Total, len(out.Traces))
	}
	// newest first: the single-pattern scan over everything
	newest := out.Traces[0]
	if newest.Planner != "GS" || newest.Rows != 6 {
		t.Errorf("newest trace = %+v, want GS with 6 rows", newest)
	}
	oldest := out.Traces[1]
	if oldest.Planner != "SS" {
		t.Errorf("oldest planner = %q, want SS", oldest.Planner)
	}
	if len(oldest.Patterns) != 2 {
		t.Fatalf("oldest has %d pattern traces, want 2", len(oldest.Patterns))
	}
	for _, p := range oldest.Patterns {
		if p.Pattern == "" || p.Actual <= 0 || p.QError < 1 {
			t.Errorf("incomplete pattern trace: %+v", p)
		}
	}
	if oldest.Plan == "" || !strings.Contains(oldest.Query, "SELECT") {
		t.Errorf("trace missing plan/query: %+v", oldest)
	}
	if oldest.Ops <= 0 || oldest.WallNanos <= 0 {
		t.Errorf("trace missing ops/wall: %+v", oldest)
	}

	// n parameter limits and validates
	resp = getJSON(t, srv.URL+"/trace/recent?n=1", &out)
	if resp.StatusCode != http.StatusOK || len(out.Traces) != 1 {
		t.Errorf("n=1: status %d, %d traces", resp.StatusCode, len(out.Traces))
	}
	status, _, _ := getBody(t, srv.URL+"/trace/recent?n=bogus")
	if status != http.StatusBadRequest {
		t.Errorf("n=bogus status = %d, want 400", status)
	}
}

func TestTraceRecentEmpty(t *testing.T) {
	srv := newServer(t)
	_, body, _ := getBody(t, srv.URL+"/trace/recent")
	if !strings.Contains(body, `"traces":[]`) {
		t.Errorf("empty trace list should encode as [], got %s", body)
	}
}

func TestTimeoutStatusInMetrics(t *testing.T) {
	db, err := rdfshapes.LoadNTriples(strings.NewReader(testNT), rdfshapes.WithOpsBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(db))
	t.Cleanup(srv.Close)
	serveQueries(t, srv.URL, `SELECT * WHERE { ?s ?p ?o }`)
	_, body, _ := getBody(t, srv.URL+"/metrics")
	if !strings.Contains(body, `rdfshapes_queries_total{planner="GS",status="timeout"} 1`) {
		t.Errorf("metrics missing timeout status:\n%s", body)
	}
}

func TestServerInstallsDefaultCollector(t *testing.T) {
	db, err := rdfshapes.LoadNTriples(strings.NewReader(testNT))
	if err != nil {
		t.Fatal(err)
	}
	if db.Collector() != nil {
		t.Fatal("fresh DB should have no collector")
	}
	New(db)
	c := db.Collector()
	if c == nil {
		t.Fatal("New did not install a collector")
	}
	if c.RingSize() != obsv.DefaultRingSize {
		t.Errorf("default ring size = %d, want %d", c.RingSize(), obsv.DefaultRingSize)
	}
}

// TestAdaptiveMetricsExposed checks that enabling adaptive replan on the
// DB surfaces its gauges in /metrics: the tracked-template count and the
// per-template rolling q-error series. The reads run beside an update
// stream, every request of either kind must succeed, and afterwards the
// q-error histogram and /trace/recent hold the executions.
func TestAdaptiveMetricsExposed(t *testing.T) {
	srv, _ := newGovernedServer(t, 4, Config{}, rdfshapes.WithAdaptiveReplan(10))
	const updates, reads = 10, 10
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < updates; i++ {
			resp, err := http.PostForm(srv.URL+"/update", url.Values{"update": {fmt.Sprintf(
				"INSERT DATA { <http://x/w%d> <http://x/q> <http://x/v%d> }", i, i)}})
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("update %d beside reads: status = %d", i, resp.StatusCode)
			}
		}
	}()
	for i := 0; i < reads; i++ {
		if status, body, _ := getBody(t, srv.URL+"/sparql?query="+url.QueryEscape(crossQuery)); status != http.StatusOK {
			t.Errorf("read %d beside updates: status = %d: %s", i, status, body)
		}
	}
	<-done
	body := metricsBody(t, srv.URL)
	for _, want := range []string{
		"rdfshapes_adaptive_templates 1",
		`rdfshapes_template_qerror{template="`,
		fmt.Sprintf("rdfshapes_updates_applied %d", updates),
		fmt.Sprintf(`rdfshapes_plan_qerror_count{planner="GS"} %d`, reads),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	var out struct {
		Traces []struct {
			Patterns []struct {
				QError float64 `json:"qerror"`
			} `json:"patterns"`
		} `json:"traces"`
	}
	getJSON(t, srv.URL+"/trace/recent", &out)
	if len(out.Traces) != reads {
		t.Fatalf("/trace/recent holds %d traces, want %d", len(out.Traces), reads)
	}
	for _, tr := range out.Traces {
		if len(tr.Patterns) != 3 || tr.Patterns[2].QError < 1 {
			t.Errorf("trace without per-pattern q-errors: %+v", tr)
		}
	}
}

// TestAdaptiveTemplatesCapped: a client cycling through ten times
// MaxAdaptiveTemplates query shapes gets every answer right while the
// tracked templates — and the {template} series they put in /metrics —
// stop at the cap; the rest are planned uncached and counted.
func TestAdaptiveTemplatesCapped(t *testing.T) {
	const shapes = 10 * rdfshapes.MaxAdaptiveTemplates
	var nt strings.Builder
	for i := 0; i < shapes; i++ {
		fmt.Fprintf(&nt, "<http://x/s%d> <http://x/p%d> <http://x/o%d> .\n", i, i, i)
	}
	db, err := rdfshapes.LoadNTriples(strings.NewReader(nt.String()), rdfshapes.WithAdaptiveReplan(10))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(db))
	t.Cleanup(func() { srv.Close(); db.Close() })

	// Predicates are structural, so each query is its own template.
	for round := 0; round < 2; round++ {
		for i := 0; i < shapes; i++ {
			rows, err := db.Query(fmt.Sprintf("SELECT ?s ?o WHERE { ?s <http://x/p%d> ?o }", i))
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("<http://x/o%d>", i); len(rows.Rows) != 1 || rows.Rows[0]["o"] != want {
				t.Fatalf("round %d, shape %d: answered %v, want one row with ?o = %s", round, i, rows.Rows, want)
			}
		}
	}
	if n := len(db.AdaptiveTemplates()); n != rdfshapes.MaxAdaptiveTemplates {
		t.Errorf("%d templates tracked, want the cap %d", n, rdfshapes.MaxAdaptiveTemplates)
	}
	if got, want := db.AdaptiveOverflow(), int64(2*(shapes-rdfshapes.MaxAdaptiveTemplates)); got != want {
		t.Errorf("AdaptiveOverflow = %d, want %d", got, want)
	}
	body := metricsBody(t, srv.URL)
	if n := strings.Count(body, "rdfshapes_template_qerror{"); n == 0 || n > rdfshapes.MaxAdaptiveTemplates {
		t.Errorf("%d rdfshapes_template_qerror series, want 1..%d", n, rdfshapes.MaxAdaptiveTemplates)
	}
	if want := fmt.Sprintf("rdfshapes_adaptive_overflow_total %d", db.AdaptiveOverflow()); !strings.Contains(body, want) {
		t.Errorf("metrics missing %q", want)
	}
}
