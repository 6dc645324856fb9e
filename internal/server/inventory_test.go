package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"rdfshapes"
)

// documentedFamilies returns the metric inventory table of
// docs/OBSERVABILITY.md as name → type.
func documentedFamilies(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "| `rdfshapes_") {
			continue
		}
		cells := strings.Split(line, "|")
		out[strings.Trim(strings.TrimSpace(cells[1]), "`")] = strings.TrimSpace(cells[2])
	}
	if len(out) == 0 {
		t.Fatal("docs/OBSERVABILITY.md has no metric inventory table")
	}
	return out
}

// servedFamilies returns the families of a /metrics body as name → type.
func servedFamilies(body string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			out[f[2]] = f[3]
		}
	}
	return out
}

// TestMetricInventoryMatchesDocs: a handler over a sharded, durable DB
// with adaptive replanning serves exactly the families the inventory
// table in docs/OBSERVABILITY.md lists, with the documented types. The
// replica's and the router's families are checked where those roles
// run (cmd/server's replica test).
func TestMetricInventoryMatchesDocs(t *testing.T) {
	db, err := rdfshapes.LoadNTriples(strings.NewReader(testNT),
		rdfshapes.WithAdaptiveReplan(10), rdfshapes.WithShards(2), rdfshapes.WithDurability(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(db))
	t.Cleanup(func() { srv.Close(); db.Close() })
	serveQueries(t, srv.URL, `PREFIX ex: <http://ex/> SELECT ?x ?n WHERE { ?x a ex:Person . ?x ex:name ?n }`)

	served := servedFamilies(metricsBody(t, srv.URL))
	documented := documentedFamilies(t)
	var missing, undocumented []string
	for name, typ := range documented {
		if strings.HasPrefix(name, "rdfshapes_repl_") || strings.HasPrefix(name, "rdfshapes_router_") {
			continue
		}
		if got, ok := served[name]; !ok {
			missing = append(missing, name)
		} else if got != typ {
			t.Errorf("%s served as %s, documented as %s", name, got, typ)
		}
	}
	for name := range served {
		if _, ok := documented[name]; !ok {
			undocumented = append(undocumented, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(undocumented)
	if len(missing) > 0 {
		t.Errorf("documented but not served: %v", missing)
	}
	if len(undocumented) > 0 {
		t.Errorf("served but not in docs/OBSERVABILITY.md: %v", undocumented)
	}
}

// TestAdaptiveReplansCountedBeforeNewAreServed: the replan counter is
// read from the DB's template statistics at scrape time, so replans that
// fired before the handler (and its collector) existed are served.
func TestAdaptiveReplansCountedBeforeNewAreServed(t *testing.T) {
	var data strings.Builder
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&data, "<http://ex/p%d> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n", i)
		fmt.Fprintf(&data, "<http://ex/p%d> <http://ex/knows> <http://ex/q%d> .\n", i, i)
	}
	db, err := rdfshapes.LoadNTriples(strings.NewReader(data.String()), rdfshapes.WithAdaptiveReplan(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	const query = `SELECT ?a ?b WHERE { ?a a <http://ex/Person> . ?a <http://ex/knows> ?b }`
	if _, err := db.Query(query); err != nil { // plans and caches the template
		t.Fatal(err)
	}
	// Grow the data 15x under the cached plan's frozen estimates; the
	// window's median q-error crosses 3 and the first replan fires.
	var ins strings.Builder
	ins.WriteString("INSERT DATA {\n")
	for i := 100; i < 160; i++ {
		fmt.Fprintf(&ins, "<http://ex/p%d> a <http://ex/Person> . <http://ex/p%d> <http://ex/knows> <http://ex/q%d> .\n", i, i, i)
	}
	ins.WriteString("}")
	if _, err := db.Update(ins.String()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := db.Query(query); err != nil {
			t.Fatal(err)
		}
	}
	st := db.AdaptiveTemplates()
	if db.AdaptiveReplans() != 1 || len(st) != 1 {
		t.Fatalf("no single replan to serve: %+v", st)
	}
	if db.Collector() != nil {
		t.Fatal("DB has a collector before New")
	}

	srv := httptest.NewServer(New(db))
	t.Cleanup(srv.Close)
	want := fmt.Sprintf("rdfshapes_adaptive_replans_total{template=%q} 1\n", st[0].Template)
	if body := metricsBody(t, srv.URL); !strings.Contains(body, want) {
		t.Errorf("metrics missing %q:\n%s", want, body)
	}
}

// TestRecoveryMetricsAfterCheckpoint: on a recovered directory, the
// recovery counters come from the DB's durability statistics and the
// checkpoint counter and histogram move with POST /admin/checkpoint.
func TestRecoveryMetricsAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := rdfshapes.LoadNTriples(strings.NewReader(testNT), rdfshapes.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Update(fmt.Sprintf("INSERT DATA { <http://ex/n%d> <http://ex/name> \"n%d\" }", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := rdfshapes.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(re))
	t.Cleanup(func() { srv.Close(); re.Close() })
	resp, err := http.Post(srv.URL+"/admin/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status = %d", resp.StatusCode)
	}
	body := metricsBody(t, srv.URL)
	for _, want := range []string{
		"rdfshapes_recoveries_total 1",
		"rdfshapes_wal_records_replayed_total 3",
		"rdfshapes_checkpoints_total 1",
		"rdfshapes_checkpoint_duration_seconds_count 1",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}
