package integration

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rdfshapes"

	"rdfshapes/internal/rdf"
	"rdfshapes/internal/sparql"
)

// fragments are tokens that stress the parsers' edge cases when
// concatenated randomly.
var fragments = []string{
	"SELECT", "ASK", "WHERE", "PREFIX", "FILTER", "OPTIONAL", "UNION",
	"ORDER", "BY", "DESC", "ASC", "LIMIT", "OFFSET", "COUNT", "AS",
	"DISTINCT", "{", "}", "(", ")", ".", ";", ",", "*", "/", "^", "a",
	"?x", "?y", "?", "<http://x/p>", "<", ">", "ex:p", ":", "_:b", "_:",
	`"lit"`, `"`, `"x"@en`, `"x"@`, `"5"^^<http://x/int>`, "^^", "5",
	"-3", "1.5", "-", "true", "false", "@prefix", "@base", "[", "]",
	"# comment", "\n", "\t", "=", "!=", "<=", ">=", "!", "|",
}

func randomInput(r *rand.Rand, maxTokens int) string {
	n := 1 + r.Intn(maxTokens)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(fragments[r.Intn(len(fragments))])
		if r.Intn(3) > 0 {
			sb.WriteByte(' ')
		}
	}
	return sb.String()
}

// addSeeds seeds a fuzz target with every fragment and with the token
// soup the quick-check tests below draw, so coverage-guided fuzzing
// starts where they probe; testdata/fuzz adds whole valid documents.
func addSeeds(f *testing.F) {
	for _, frag := range fragments {
		f.Add(frag)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		f.Add(randomInput(r, 30))
	}
}

// FuzzSPARQLParse: the SPARQL parser returns a query or an error on any
// input, never a panic or (nil, nil).
func FuzzSPARQLParse(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		if q, err := sparql.Parse(src); err == nil && q == nil {
			t.Fatalf("nil query without error for %q", src)
		}
	})
}

// FuzzTurtle: the Turtle reader never panics.
func FuzzTurtle(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = rdf.ParseTurtle(strings.NewReader(src))
	})
}

// FuzzNTriples: the N-Triples reader never panics.
func FuzzNTriples(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = rdf.ParseNTriples(strings.NewReader(src))
	})
}

// TestSPARQLParserNeverPanics feeds token soup to the SPARQL parser: it
// must return (query, nil) or (nil, error), never panic.
func TestSPARQLParserNeverPanics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			src := randomInput(r, 30)
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panic on %q: %v", src, p)
					}
				}()
				q, err := sparql.Parse(src)
				if err == nil && q == nil {
					t.Fatalf("nil query without error for %q", src)
				}
			}()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestTurtleParserNeverPanics does the same for the Turtle reader.
func TestTurtleParserNeverPanics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			src := randomInput(r, 30)
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panic on %q: %v", src, p)
					}
				}()
				_, _ = rdf.ParseTurtle(strings.NewReader(src))
			}()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestNTriplesParserNeverPanics covers the N-Triples reader, including
// raw byte noise beyond the token soup.
func TestNTriplesParserNeverPanics(t *testing.T) {
	f := func(seed int64, raw []byte) bool {
		r := rand.New(rand.NewSource(seed))
		inputs := []string{randomInput(r, 30), string(raw)}
		for _, src := range inputs {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panic on %q: %v", src, p)
					}
				}()
				_, _ = rdf.ParseNTriples(strings.NewReader(src))
			}()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestParsedQueriesExecuteSafely: whatever the parser accepts, the rest
// of the pipeline (validation happened at parse time) must not panic.
func TestParsedQueriesExecuteSafely(t *testing.T) {
	data := `<http://x/a> <http://x/p> <http://x/b> .
<http://x/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/T> .
`
	g, err := rdf.ParseNTriples(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	db, err := rdfshapes.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 10; i++ {
			src := randomInput(r, 25)
			q, err := sparql.Parse(src)
			if err != nil {
				continue
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panic executing %q: %v", src, p)
					}
				}()
				_, _ = db.Query(q.String())
			}()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
