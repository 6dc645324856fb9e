package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"rdfshapes/internal/rdf"
	"rdfshapes/internal/sparql"
	"rdfshapes/internal/store"
)

// crossProduct builds n unrelated triples per predicate, so a BGP over
// all three predicates is an unavoidable cross product — the paper's
// worst case for a mis-ordered plan, and the workload the governor must
// be able to interrupt.
func crossProduct(n int) *store.Store {
	var g rdf.Graph
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://x/s%d", i))
		o := rdf.NewIRI(fmt.Sprintf("http://x/o%d", i))
		g.Append(s, rdf.NewIRI("http://x/p1"), o)
		g.Append(s, rdf.NewIRI("http://x/p2"), o)
		g.Append(s, rdf.NewIRI("http://x/p3"), o)
	}
	return store.Load(g)
}

const crossQuery = `SELECT * WHERE {
	?a <http://x/p1> ?b .
	?c <http://x/p2> ?d .
	?e <http://x/p3> ?f .
}`

func TestRunCanceledBeforeStart(t *testing.T) {
	st := family()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := sparql.MustParse(`SELECT * WHERE { ?s ?p ?o }`)
	_, err := Run(st, q.Patterns, Options{Ctx: ctx})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestRunDeadlineAbortsCrossProduct(t *testing.T) {
	st := crossProduct(200) // 200^3 = 8e6 final-level bindings
	q := sparql.MustParse(crossQuery)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(st, q.Patterns, Options{Ctx: ctx, CountOnly: true})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	// The amortized check fires every 1024 rows, so the overrun past the
	// deadline is bounded by microseconds; 400ms allows for slow CI.
	if elapsed > 400*time.Millisecond {
		t.Errorf("deadline noticed after %v", elapsed)
	}
}

func TestRunCancelMidFlight(t *testing.T) {
	st := crossProduct(200)
	q := sparql.MustParse(crossQuery)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := Run(st, q.Patterns, Options{Ctx: ctx, CountOnly: true})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestMaxIntermediateTruncates(t *testing.T) {
	st := crossProduct(10)
	q := sparql.MustParse(crossQuery)
	res, err := Run(st, q.Patterns, Options{MaxIntermediate: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("result not marked Truncated")
	}
	var total int64
	for _, n := range res.Intermediate {
		total += n
	}
	// The budget allows 50 bindings plus the one that tripped it.
	if total < 1 || total > 51 {
		t.Errorf("intermediate total = %d, want in [1, 51]", total)
	}
	if res.TimedOut || res.LimitHit {
		t.Errorf("TimedOut=%v LimitHit=%v, want false/false", res.TimedOut, res.LimitHit)
	}
}

func TestMaxRowsTruncatesWithPartialRows(t *testing.T) {
	st := family()
	res, err := Run(st, sparql.MustParse(`SELECT * WHERE { ?s ?p ?o }`).Patterns,
		Options{MaxRows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("result not marked Truncated")
	}
	if len(res.Rows) != 3 || res.Count != 3 {
		t.Errorf("rows = %d, count = %d, want 3/3", len(res.Rows), res.Count)
	}
	if res.LimitHit {
		t.Error("MaxRows must not report LimitHit")
	}
}

func TestLimitIsNotTruncation(t *testing.T) {
	st := family()
	res, err := Run(st, sparql.MustParse(`SELECT * WHERE { ?s ?p ?o }`).Patterns,
		Options{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Error("a query LIMIT is not a budget truncation")
	}
	if !res.LimitHit {
		t.Error("LimitHit not set")
	}
}

func TestMaxRowsUnderCountOnly(t *testing.T) {
	st := family()
	res, err := Run(st, sparql.MustParse(`SELECT * WHERE { ?s ?p ?o }`).Patterns,
		Options{CountOnly: true, MaxRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Count != 2 {
		t.Errorf("Truncated=%v Count=%d, want true/2", res.Truncated, res.Count)
	}
}

func TestObserverSeesTruncation(t *testing.T) {
	st := family()
	var rep ExecReport
	_, err := Run(st, sparql.MustParse(`SELECT * WHERE { ?s ?p ?o }`).Patterns,
		Options{MaxRows: 1, Observer: func(r ExecReport) { rep = r }})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Error("observer report missing Truncated")
	}
}

func TestNoBudgetPathUnchanged(t *testing.T) {
	st := family()
	res, err := Run(st, sparql.MustParse(`SELECT * WHERE { ?s ?p ?o }`).Patterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.TimedOut || res.LimitHit {
		t.Errorf("unbudgeted run flagged: %+v", res)
	}
	if res.Count != 12 {
		t.Errorf("count = %d, want 12", res.Count)
	}
}

// TestResultRowsDoNotShareStorage: rows are carved from shared blocks,
// so each must be capped at its own width — appending to one may not
// write into its neighbour — and the blocks must outgrow their first
// size without disturbing rows already handed out.
func TestResultRowsDoNotShareStorage(t *testing.T) {
	const n = 20 // 8000 rows: every block size up to the largest
	st := crossProduct(n)
	q := sparql.MustParse(crossQuery)
	for _, k := range []int{1, 4} {
		res, err := Run(st, q.Patterns, Options{Parallelism: k})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != n*n*n {
			t.Fatalf("K=%d: %d rows, want %d", k, len(res.Rows), n*n*n)
		}
		seen := map[[3]store.ID]bool{}
		for _, row := range res.Rows {
			if cap(row) != len(row) {
				t.Fatalf("K=%d: a row has cap %d beyond its %d columns", k, cap(row), len(row))
			}
			seen[[3]store.ID{row[0], row[2], row[4]}] = true
		}
		if len(seen) != n*n*n {
			t.Errorf("K=%d: %d distinct rows, want %d — a later row overwrote an earlier one", k, len(seen), n*n*n)
		}
	}
}
