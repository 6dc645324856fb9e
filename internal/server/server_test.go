package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"rdfshapes"
)

const testNT = `
<http://ex/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
<http://ex/alice> <http://ex/name> "Alice"@en .
<http://ex/alice> <http://ex/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/alice> <http://ex/knows> <http://ex/bob> .
<http://ex/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
<http://ex/bob> <http://ex/name> "Bob" .
`

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	db, err := rdfshapes.LoadNTriples(strings.NewReader(testNT))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(db))
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestSparqlSelect(t *testing.T) {
	srv := newServer(t)
	q := url.QueryEscape(`PREFIX ex: <http://ex/>
		SELECT ?x ?n WHERE { ?x a ex:Person . ?x ex:name ?n }`)
	var out struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]struct {
				Type     string `json:"type"`
				Value    string `json:"value"`
				Lang     string `json:"xml:lang"`
				Datatype string `json:"datatype"`
			} `json:"bindings"`
		} `json:"results"`
	}
	resp := getJSON(t, srv.URL+"/sparql?query="+q, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Errorf("content type = %q", ct)
	}
	if len(out.Head.Vars) != 2 {
		t.Errorf("vars = %v", out.Head.Vars)
	}
	if len(out.Results.Bindings) != 2 {
		t.Fatalf("bindings = %v", out.Results.Bindings)
	}
	for _, b := range out.Results.Bindings {
		if b["x"].Type != "uri" {
			t.Errorf("?x type = %q", b["x"].Type)
		}
		if b["n"].Type != "literal" {
			t.Errorf("?n type = %q", b["n"].Type)
		}
	}
}

func TestSparqlTypedAndLangLiterals(t *testing.T) {
	srv := newServer(t)
	q := url.QueryEscape(`PREFIX ex: <http://ex/>
		SELECT ?n ?a WHERE { <http://ex/alice> ex:name ?n . <http://ex/alice> ex:age ?a }`)
	var out struct {
		Results struct {
			Bindings []map[string]struct {
				Type     string `json:"type"`
				Value    string `json:"value"`
				Lang     string `json:"xml:lang"`
				Datatype string `json:"datatype"`
			} `json:"bindings"`
		} `json:"results"`
	}
	getJSON(t, srv.URL+"/sparql?query="+q, &out)
	if len(out.Results.Bindings) != 1 {
		t.Fatalf("bindings = %+v", out.Results.Bindings)
	}
	b := out.Results.Bindings[0]
	if b["n"].Lang != "en" || b["n"].Value != "Alice" {
		t.Errorf("name binding = %+v", b["n"])
	}
	if !strings.HasSuffix(b["a"].Datatype, "integer") || b["a"].Value != "42" {
		t.Errorf("age binding = %+v", b["a"])
	}
}

func TestSparqlAsk(t *testing.T) {
	srv := newServer(t)
	for query, want := range map[string]bool{
		`ASK { ?x <http://ex/knows> ?y }`: true,
		`ASK { ?x <http://ex/hates> ?y }`: false,
		`PREFIX ex: <http://ex/>
		 ASK { ?x ex:age ?a . FILTER(?a > 40) }`: true,
		// prologue and form on one line: the form comes from the parse
		`PREFIX ex: <http://ex/> ASK { ?x ex:knows ?y }`: true,
	} {
		var out struct {
			Boolean *bool `json:"boolean"`
		}
		resp := getJSON(t, srv.URL+"/sparql?query="+url.QueryEscape(query), &out)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d for %q", resp.StatusCode, query)
		}
		if out.Boolean == nil || *out.Boolean != want {
			t.Errorf("ASK %q = %v, want %v", query, out.Boolean, want)
		}
	}
}

func TestSparqlPost(t *testing.T) {
	srv := newServer(t)
	query := `SELECT * WHERE { ?s ?p ?o }`
	// form POST
	resp, err := http.PostForm(srv.URL+"/sparql", url.Values{"query": {query}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("form POST status = %d", resp.StatusCode)
	}
	// raw POST
	resp, err = http.Post(srv.URL+"/sparql", "application/sparql-query", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("raw POST status = %d", resp.StatusCode)
	}
}

func TestSparqlErrors(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/sparql")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing query: status = %d", resp.StatusCode)
	}
	// "ASKED" only starts like a query form: a parse error, not an ASK
	for _, bad := range []string{"NOT SPARQL", "ASKED { ?x <http://ex/knows> ?y }"} {
		resp, err = http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad query %q: status = %d", bad, resp.StatusCode)
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv := newServer(t)
	q := url.QueryEscape(`PREFIX ex: <http://ex/>
		SELECT * WHERE { ?x a ex:Person . ?x ex:name ?n }`)
	resp, err := http.Get(srv.URL + "/explain?query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, want := range []string{"plan (GS)", "plan (SS)", "estimated result cardinality"} {
		if !strings.Contains(body, want) {
			t.Errorf("explain output missing %q:\n%s", want, body)
		}
	}
}

func TestShapesAndStatsEndpoints(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/shapes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "sh:NodeShape") {
		t.Error("shapes endpoint missing SHACL content")
	}
	resp2, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	n, _ = resp2.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "void#triples") {
		t.Error("stats endpoint missing VoID content")
	}
}

func TestHealthz(t *testing.T) {
	srv := newServer(t)
	var out struct {
		Status  string `json:"status"`
		Triples int    `json:"triples"`
	}
	resp := getJSON(t, srv.URL+"/healthz", &out)
	if resp.StatusCode != http.StatusOK || out.Status != "ok" || out.Triples != 6 {
		t.Errorf("healthz = %+v (status %d)", out, resp.StatusCode)
	}
}

func TestOptionalUnboundOmittedFromBindings(t *testing.T) {
	srv := newServer(t)
	q := url.QueryEscape(`PREFIX ex: <http://ex/>
		SELECT ?x ?y WHERE { ?x a ex:Person . OPTIONAL { ?x ex:knows ?y } }`)
	var out struct {
		Results struct {
			Bindings []map[string]struct {
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	getJSON(t, srv.URL+"/sparql?query="+q, &out)
	if len(out.Results.Bindings) != 2 {
		t.Fatalf("bindings = %+v", out.Results.Bindings)
	}
	omitted := 0
	for _, b := range out.Results.Bindings {
		if _, ok := b["y"]; !ok {
			omitted++
		}
	}
	if omitted != 1 {
		t.Errorf("unbound bindings omitted = %d, want 1", omitted)
	}
}

func TestBudgetExceededOverHTTP(t *testing.T) {
	db, err := rdfshapes.LoadNTriples(strings.NewReader(testNT), rdfshapes.WithOpsBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(db))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(`SELECT * WHERE { ?s ?p ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("budget-exceeded status = %d, want 400", resp.StatusCode)
	}
}

func TestSparqlConstructOverHTTP(t *testing.T) {
	srv := newServer(t)
	for _, query := range []string{
		`PREFIX ex: <http://ex/>
		CONSTRUCT { ?y ex:knownBy ?x } WHERE { ?x ex:knows ?y }`,
		// prologue and form on one line: the form comes from the parse
		`PREFIX ex: <http://ex/> CONSTRUCT { ?y ex:knownBy ?x } WHERE { ?x ex:knows ?y }`,
	} {
		resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(query))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d for %q: %s", resp.StatusCode, query, body)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/n-triples") {
			t.Errorf("content type = %q for %q", ct, query)
		}
		if !strings.Contains(string(body), "<http://ex/bob> <http://ex/knownBy> <http://ex/alice> .") {
			t.Errorf("construct body = %q for %q", body, query)
		}
	}
}
