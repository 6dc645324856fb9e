package rdfshapes_test

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"rdfshapes"
	"rdfshapes/internal/sparql"
)

func patternsOf(t *testing.T, src string) []sparql.TriplePattern {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q.Patterns
}

func TestTemplateKeyNormalization(t *testing.T) {
	base := patternsOf(t, `SELECT ?x WHERE {
		?x a <http://ex/Person> .
		?x <http://ex/knows> <http://ex/bob> .
	}`)
	// Different constant, different variable names: same template.
	renamed := patternsOf(t, `SELECT ?who WHERE {
		?who a <http://ex/Person> .
		?who <http://ex/knows> <http://ex/carol> .
	}`)
	k1, label := rdfshapes.TemplateKey(base)
	k2, _ := rdfshapes.TemplateKey(renamed)
	if k1 != k2 {
		t.Errorf("constants/var-names changed the key:\n%q\n%q", k1, k2)
	}
	// The masked constant must not leak into the key, but the structural
	// parts (predicate IRIs, the rdf:type object) must be kept.
	if strings.Contains(k1, "bob") {
		t.Errorf("key retains a non-structural constant: %q", k1)
	}
	for _, want := range []string{"http://ex/Person", "http://ex/knows", "?v0"} {
		if !strings.Contains(k1, want) {
			t.Errorf("key %q missing structural part %q", k1, want)
		}
	}
	if label == "" {
		t.Error("empty label")
	}

	// A different predicate is a different template.
	other := patternsOf(t, `SELECT ?x WHERE {
		?x a <http://ex/Person> .
		?x <http://ex/likes> <http://ex/bob> .
	}`)
	if k3, _ := rdfshapes.TemplateKey(other); k3 == k1 {
		t.Error("different predicate produced the same key")
	}
	// A different class in the type pattern is a different template.
	cls := patternsOf(t, `SELECT ?x WHERE {
		?x a <http://ex/Robot> .
		?x <http://ex/knows> <http://ex/bob> .
	}`)
	if k4, _ := rdfshapes.TemplateKey(cls); k4 == k1 {
		t.Error("different rdf:type object produced the same key")
	}
}

// adaptiveQuery is the templated query the replan tests replay. Its
// final join size tracks the dataset, so frozen estimates drift when the
// data grows; the variable names vary per instance to prove instances
// normalize onto one template.
func adaptiveQuery(i int) string {
	return fmt.Sprintf(`PREFIX ex: <http://ex/>
		SELECT ?a%[1]d ?b%[1]d WHERE {
			?a%[1]d a ex:Person .
			?a%[1]d ex:knows ?b%[1]d .
		}`, i)
}

// openAdaptive loads a small social graph with adaptive replan enabled
// and a fake clock, returning the DB and a function advancing the clock.
func openAdaptive(t *testing.T, threshold float64, window int, cooldown time.Duration) (*rdfshapes.DB, func(time.Duration)) {
	t.Helper()
	var data strings.Builder
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&data, "<http://ex/p%d> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n", i)
		fmt.Fprintf(&data, "<http://ex/p%d> <http://ex/knows> <http://ex/q%d> .\n", i, i)
		fmt.Fprintf(&data, "<http://ex/q%d> <http://ex/name> \"n%d\" .\n", i, i)
	}
	db, err := rdfshapes.LoadNTriples(strings.NewReader(data.String()),
		rdfshapes.WithAdaptiveReplan(threshold))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	now := time.Unix(1_000_000, 0)
	db.SetAdaptiveClock(func() time.Time { return now }, window, cooldown)
	return db, func(d time.Duration) { now = now.Add(d) }
}

// drift inserts n new persons with knows edges, making any estimates
// frozen before the insert stale by roughly a factor of n/4.
func drift(t *testing.T, db *rdfshapes.DB, start, n int) {
	t.Helper()
	var b strings.Builder
	b.WriteString("INSERT DATA {\n")
	for i := start; i < start+n; i++ {
		fmt.Fprintf(&b, "<http://ex/p%d> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n", i)
		fmt.Fprintf(&b, "<http://ex/p%d> <http://ex/knows> <http://ex/q%d> .\n", i, i)
		fmt.Fprintf(&b, "<http://ex/q%d> <http://ex/name> \"n%d\" .\n", i, i)
	}
	b.WriteString("}")
	if _, err := db.Update(b.String()); err != nil {
		t.Fatal(err)
	}
}

func run(t *testing.T, db *rdfshapes.DB, i int) {
	t.Helper()
	if _, err := db.Query(adaptiveQuery(i)); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveReplanRestoresEstimates(t *testing.T) {
	db, advance := openAdaptive(t, 5, 4, time.Second)

	// First instance optimizes and caches; later instances hit.
	run(t, db, 0)
	run(t, db, 1)
	st := db.AdaptiveTemplates()
	if len(st) != 1 {
		t.Fatalf("templates = %d, want 1", len(st))
	}
	if st[0].Misses != 1 || st[0].Hits != 1 || !st[0].Cached {
		t.Fatalf("after two instances: %+v", st[0])
	}

	// A skewed update stream: the dataset grows 20x while the cached
	// estimates stay frozen at plan time.
	drift(t, db, 100, 80)
	advance(10 * time.Second)

	// Complete executions accumulate q-error evidence; once the window
	// median crosses the threshold the cached plan is invalidated.
	for i := 0; i < 4; i++ {
		run(t, db, i)
	}
	if got := db.AdaptiveReplans(); got != 1 {
		t.Fatalf("AdaptiveReplans = %d, want 1 (templates: %+v)", got, db.AdaptiveTemplates())
	}
	// The next instance re-plans against current statistics; estimate
	// quality is restored, so no further replans fire even with the
	// cooldown long expired.
	advance(10 * time.Second)
	for i := 0; i < 6; i++ {
		run(t, db, i)
	}
	st = db.AdaptiveTemplates()
	if got := db.AdaptiveReplans(); got != 1 {
		t.Errorf("AdaptiveReplans = %d after recovery, want 1 (%+v)", got, st)
	}
	if st[0].Observations < 3 {
		t.Fatalf("too few post-replan observations: %+v", st[0])
	}
	if st[0].QError > 5 {
		t.Errorf("post-replan q-error %v not restored under threshold 5", st[0].QError)
	}
	if !st[0].Cached {
		t.Error("re-planned template not cached")
	}
}

func TestAdaptiveReplanCooldown(t *testing.T) {
	db, advance := openAdaptive(t, 3, 4, time.Minute)

	run(t, db, 0)
	drift(t, db, 100, 60)
	advance(2 * time.Minute)
	for i := 0; i < 4; i++ {
		run(t, db, i)
	}
	if got := db.AdaptiveReplans(); got != 1 {
		t.Fatalf("AdaptiveReplans = %d, want 1 (%+v)", got, db.AdaptiveTemplates())
	}

	// Re-plan, then drift again. The window median crosses the threshold
	// once more, but the clock has not moved since replan #1 — the
	// cooldown holds the second replan back.
	run(t, db, 0) // re-plan + cache
	drift(t, db, 300, 300)
	for i := 0; i < 6; i++ {
		run(t, db, i)
	}
	if got := db.AdaptiveReplans(); got != 1 {
		t.Fatalf("AdaptiveReplans = %d during cooldown, want still 1 (%+v)", got, db.AdaptiveTemplates())
	}

	// Once the cooldown passes, the already-full window fires on the
	// next complete execution.
	advance(2 * time.Minute)
	run(t, db, 0)
	if got := db.AdaptiveReplans(); got != 2 {
		t.Fatalf("AdaptiveReplans = %d after cooldown, want 2 (%+v)", got, db.AdaptiveTemplates())
	}
}

// TestTemplateLabelsStayUnique: two templates longer than the label cap
// that share their first 200 bytes get distinct labels, each valid UTF-8
// even where the cap falls inside a rune, so their per-template series
// cannot collide in /metrics.
func TestTemplateLabelsStayUnique(t *testing.T) {
	// The type pattern sorts first; its class IRI puts the two-byte é
	// across byte 200 of the key, and the long predicates push the key
	// past 250 bytes.
	class := "<http://ex/" + strings.Repeat("c", 134) + "é>"
	query := func(p string) string {
		return fmt.Sprintf(`SELECT ?x WHERE { ?x a %s . ?x <http://ex/%s%s> ?y }`, class, p, strings.Repeat("p", 20))
	}
	long := func(p string) []sparql.TriplePattern { return patternsOf(t, query(p)) }
	k1, l1 := rdfshapes.TemplateKey(long("knows"))
	k2, l2 := rdfshapes.TemplateKey(long("likes"))
	if len(k1) < 250 || k1[:200] != k2[:200] {
		t.Fatalf("keys do not share a 200-byte prefix at >= 250 bytes:\n%q\n%q", k1, k2)
	}
	if l1 == l2 {
		t.Errorf("distinct templates share the label %q", l1)
	}
	for _, l := range []string{l1, l2} {
		if len(l) > 200 || !utf8.ValidString(l) {
			t.Errorf("label %q: %d bytes, valid UTF-8 %v; want <= 200 and valid", l, len(l), utf8.ValidString(l))
		}
	}
	if key, label := rdfshapes.TemplateKey(patternsOf(t, adaptiveQuery(0))); label != key {
		t.Errorf("short template label %q differs from its key %q", label, key)
	}

	db, err := rdfshapes.LoadNTriples(strings.NewReader(testNT), rdfshapes.WithAdaptiveReplan(10))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, p := range []string{"knows", "likes"} {
		if _, err := db.Query(query(p)); err != nil {
			t.Fatal(err)
		}
	}
	st := db.AdaptiveTemplates()
	if len(st) != 2 || st[0].Template == st[1].Template {
		t.Errorf("AdaptiveTemplates = %+v, want two entries with distinct labels", st)
	}
}

func TestAdaptiveDisabledByDefault(t *testing.T) {
	db := open(t)
	if db.AdaptiveEnabled() {
		t.Error("adaptive enabled without WithAdaptiveReplan")
	}
	if db.AdaptiveReplans() != 0 || db.AdaptiveTemplates() != nil {
		t.Error("disabled adaptive reports state")
	}
	// Thresholds at or below 1 leave the feature off: q-error is >= 1 by
	// construction, so such a threshold would replan on every window.
	db2, err := rdfshapes.LoadNTriples(strings.NewReader(testNT), rdfshapes.WithAdaptiveReplan(1))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.AdaptiveEnabled() {
		t.Error("threshold 1 enabled adaptive replan")
	}
}
