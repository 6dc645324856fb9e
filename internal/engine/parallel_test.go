package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"rdfshapes/internal/rdf"
	"rdfshapes/internal/sparql"
	"rdfshapes/internal/store"
)

// runQ executes src with the given options, planning in textual order.
func runWith(t *testing.T, st *store.Store, src string, opts Options) *Result {
	t.Helper()
	q := sparql.MustParse(src)
	opts.Filters = q.Filters
	opts.Optionals = q.Optionals
	res, err := Run(st, q.Patterns, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelMatchesSerial pins the determinism contract: a parallel
// run returns the same rows in the same order as the serial executor,
// with identical Count, Ops, and per-pattern Intermediate.
func TestParallelMatchesSerial(t *testing.T) {
	queries := []string{
		`SELECT * WHERE { ?p <http://x/parentOf> ?c }`,
		`SELECT * WHERE {
			?g <http://x/parentOf> ?p .
			?p <http://x/parentOf> ?c .
		}`,
		`SELECT * WHERE {
			?x a <http://x/Person> .
			?x <http://x/name> ?n .
			FILTER(?n > "a")
		}`,
		`SELECT * WHERE {
			?x a <http://x/Person> .
			OPTIONAL { ?x <http://x/parentOf> ?c }
		}`,
		`SELECT * WHERE { ?s ?p ?o }`,
	}
	stores := map[string]*store.Store{
		"family": family(),
		"cross":  crossProduct(30),
	}
	crossQueries := []string{crossQuery}
	for name, st := range stores {
		qs := queries
		if name == "cross" {
			qs = crossQueries
		}
		for _, src := range qs {
			serial := runWith(t, st, src, Options{})
			for _, k := range []int{2, 4, 7} {
				par := runWith(t, st, src, Options{Parallelism: k})
				if !reflect.DeepEqual(serial, par) {
					t.Errorf("%s K=%d: parallel result differs from serial\nserial: count=%d ops=%d inter=%v\nparallel: count=%d ops=%d inter=%v",
						name, k, serial.Count, serial.Ops, serial.Intermediate,
						par.Count, par.Ops, par.Intermediate)
				}
			}
		}
	}
}

// TestParallelCountOnlyMatchesSerial covers the CountOnly path, where
// Rows stay nil and only the counters merge.
func TestParallelCountOnlyMatchesSerial(t *testing.T) {
	st := crossProduct(20)
	serial := runWith(t, st, crossQuery, Options{CountOnly: true})
	par := runWith(t, st, crossQuery, Options{CountOnly: true, Parallelism: 4})
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("CountOnly parallel differs: serial count=%d ops=%d, parallel count=%d ops=%d",
			serial.Count, serial.Ops, par.Count, par.Ops)
	}
}

// TestParallelLimitFallsBackToSerial pins that Limit queries take the
// serial path bit-for-bit: early termination at a row quota is
// inherently order-dependent, so the engine does not parallelize it.
func TestParallelLimitFallsBackToSerial(t *testing.T) {
	st := crossProduct(10)
	serial := runWith(t, st, crossQuery, Options{Limit: 7})
	par := runWith(t, st, crossQuery, Options{Limit: 7, Parallelism: 4})
	if !reflect.DeepEqual(serial, par) {
		t.Error("Limit run with Parallelism set differs from serial")
	}
	if !par.LimitHit {
		t.Error("LimitHit not set")
	}
}

// TestParallelMaxRowsExact pins the budget contract under parallelism:
// the merged result holds exactly MaxRows rows, marked Truncated.
func TestParallelMaxRowsExact(t *testing.T) {
	st := crossProduct(20)
	res := runWith(t, st, crossQuery, Options{MaxRows: 5, Parallelism: 4})
	if !res.Truncated {
		t.Fatal("result not marked Truncated")
	}
	if res.Count != 5 || len(res.Rows) != 5 {
		t.Errorf("Count=%d len(Rows)=%d, want exactly 5", res.Count, len(res.Rows))
	}
}

// TestParallelMaxIntermediateBounded pins that the shared intermediate
// budget stops a parallel run promptly: the total intermediate bindings
// may overshoot the budget by at most one per worker (each worker can be
// past the atomic check when the budget trips).
func TestParallelMaxIntermediateBounded(t *testing.T) {
	const budget, k = 50, 4
	st := crossProduct(20)
	res := runWith(t, st, crossQuery, Options{MaxIntermediate: budget, Parallelism: k})
	if !res.Truncated {
		t.Fatal("result not marked Truncated")
	}
	var total int64
	for _, n := range res.Intermediate {
		total += n
	}
	if total < 1 || total > budget+k {
		t.Errorf("total intermediate = %d, want in [1, %d]", total, budget+k)
	}
}

// TestParallelMaxOpsTimedOut pins the ops budget under parallelism.
func TestParallelMaxOpsTimedOut(t *testing.T) {
	st := crossProduct(50)
	res := runWith(t, st, crossQuery, Options{MaxOps: 1000, CountOnly: true, Parallelism: 4})
	if !res.TimedOut {
		t.Fatal("TimedOut not set")
	}
}

// TestParallelDeadlineAborts is the satellite cancellation audit: every
// worker keeps a worker-lifetime op counter for the amortized context
// check, so even across small morsels a canceled context stops a
// parallel run within the same documented bound as the serial engine.
func TestParallelDeadlineAborts(t *testing.T) {
	st := crossProduct(200)
	q := sparql.MustParse(crossQuery)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(st, q.Patterns, Options{Ctx: ctx, CountOnly: true, Parallelism: 4})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed > 400*time.Millisecond {
		t.Errorf("deadline noticed after %v, want < 400ms", elapsed)
	}
}

// TestParallelCanceledMidRun cancels explicitly (not via deadline) and
// expects ErrCanceled from a parallel run.
func TestParallelCanceledMidRun(t *testing.T) {
	st := crossProduct(200)
	q := sparql.MustParse(crossQuery)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := Run(st, q.Patterns, Options{Ctx: ctx, CountOnly: true, Parallelism: 4})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// trippedCtx is a context whose Err becomes non-nil after the first
// call: Run's up-front check passes, and the very next amortized check
// anywhere in execution observes the cancellation.
type trippedCtx struct{ calls atomic.Int64 }

func (c *trippedCtx) Err() error {
	if c.calls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}
func (c *trippedCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *trippedCtx) Done() <-chan struct{}       { return nil }
func (c *trippedCtx) Value(any) any               { return nil }

// TestParallelWorkerCadencePerWorker pins the striding-counter audit:
// the cancellation cadence counter is worker-lifetime, NOT per-morsel.
// The store below splits into morsels of ~940 rows — each smaller than
// the 1024-op check interval — so a per-morsel counter would reset
// before ever hitting the mask and the canceled context would never be
// noticed. The worker-lifetime counter crosses 1024 during a worker's
// second morsel and must abort the run with ErrCanceled.
func TestParallelWorkerCadencePerWorker(t *testing.T) {
	const k = 4
	st := crossProduct(10000) // 30000 triples; k*8 = 32 morsels of ~940 rows
	q := sparql.MustParse(`SELECT * WHERE { ?s ?p ?o }`)
	ctx := &trippedCtx{}
	_, err := Run(st, q.Patterns, Options{Ctx: ctx, CountOnly: true, Parallelism: k})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled — per-worker cancellation cadence skipped across morsels", err)
	}
}

// TestParallelWorkersGaugeDrains verifies the worker-utilization gauge
// rises during a parallel run and returns to zero afterwards.
func TestParallelWorkersGaugeDrains(t *testing.T) {
	st := crossProduct(150)
	q := sparql.MustParse(crossQuery)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := Run(st, q.Patterns, Options{CountOnly: true, Parallelism: 4}); err != nil {
			t.Error(err)
		}
	}()
	sawActive := false
	deadline := time.Now().Add(5 * time.Second)
	for !sawActive && time.Now().Before(deadline) {
		if ActiveParallelWorkers() > 0 {
			sawActive = true
		}
		select {
		case <-done:
			deadline = time.Now() // run finished; stop polling
		default:
		}
	}
	<-done
	if !sawActive {
		t.Error("ActiveParallelWorkers never observed > 0 during a parallel run")
	}
	if n := ActiveParallelWorkers(); n != 0 {
		t.Errorf("ActiveParallelWorkers = %d after run, want 0", n)
	}
}

// TestScanChunksEquivalence pins the ChunkedSource contract on the
// frozen store: concatenating the chunk scans reproduces Scan exactly.
func TestScanChunksEquivalence(t *testing.T) {
	st := crossProduct(37)
	pats := []store.IDTriple{
		{},               // full scan
		{P: anyP(t, st)}, // one predicate's range
	}
	for _, pat := range pats {
		var whole []store.IDTriple
		st.Scan(pat, func(tr store.IDTriple) bool {
			whole = append(whole, tr)
			return true
		})
		for _, n := range []int{1, 2, 3, 16, 1 << 20} {
			var parts []store.IDTriple
			for _, chunk := range st.ScanChunks(pat, n) {
				chunk(func(tr store.IDTriple) bool {
					parts = append(parts, tr)
					return true
				})
			}
			if !reflect.DeepEqual(whole, parts) {
				t.Fatalf("pat=%v n=%d: chunked scan differs (%d vs %d rows)", pat, n, len(whole), len(parts))
			}
		}
	}
}

func anyP(t *testing.T, st *store.Store) store.ID {
	t.Helper()
	id, ok := st.Dict().Lookup(rdf.NewIRI("http://x/p2"))
	if !ok {
		t.Fatal("predicate missing")
	}
	return id
}

// TestMaterializeDistinctNoSeparatorCollision is the DISTINCT-key
// regression test: blank-node labels are rendered unescaped, so with the
// old rendered-string keys ("term\x00term\x00...") the two rows below
// collided — (_:b␀_:c, unbound) and (_:b, _:c␀) both produced the key
// "_:b\x00_:c\x00\x00". Keying on the projected ID tuple keeps them
// distinct.
func TestMaterializeDistinctNoSeparatorCollision(t *testing.T) {
	p := rdf.NewIRI("http://x/p")
	tricky := rdf.NewBlank("b\x00_:c")
	plain := rdf.NewBlank("b")
	tail := rdf.NewBlank("c\x00")
	var g rdf.Graph
	g.Append(tricky, p, plain)
	g.Append(plain, p, tail)
	st := store.Load(g)
	id := func(term rdf.Term) store.ID {
		v, ok := st.Dict().Lookup(term)
		if !ok {
			t.Fatalf("term %v missing from dict", term)
		}
		return v
	}

	q := sparql.MustParse(`SELECT DISTINCT ?x ?y WHERE { ?x <http://x/p> ?o . OPTIONAL { ?o <http://x/p> ?y } }`)
	res := &Result{
		Vars: []string{"x", "y"},
		Rows: [][]store.ID{
			{id(tricky), 0},       // renders ("_:b\x00_:c", "")
			{id(plain), id(tail)}, // renders ("_:b", "_:c\x00")
		},
		Count: 2,
	}
	rows, err := Materialize(st, q, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("DISTINCT collapsed %d distinct rows to %d — separator collision", res.Count, len(rows))
	}
}

// TestMaterializeDistinctUnboundVsEmpty pins that an unbound OPTIONAL
// variable (ID 0) stays distinct from a bound empty-string literal.
func TestMaterializeDistinctUnboundVsEmpty(t *testing.T) {
	p := rdf.NewIRI("http://x/p")
	s := rdf.NewIRI("http://x/s")
	empty := rdf.NewLiteral("")
	var g rdf.Graph
	g.Append(s, p, empty)
	st := store.Load(g)
	sid, _ := st.Dict().Lookup(s)
	eid, ok := st.Dict().Lookup(empty)
	if !ok {
		t.Fatal("empty literal missing")
	}

	q := sparql.MustParse(`SELECT DISTINCT ?x ?y WHERE { ?x <http://x/p> ?z . OPTIONAL { ?x <http://x/q> ?y } }`)
	res := &Result{
		Vars:  []string{"x", "y"},
		Rows:  [][]store.ID{{sid, 0}, {sid, eid}},
		Count: 2,
	}
	rows, err := Materialize(st, q, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("unbound collided with empty literal: got %d rows, want 2", len(rows))
	}
}

// BenchmarkMaterializeDecode pins the per-call decode memoization on a
// high-duplication result: n^2 rows over only 2n distinct terms. all
// renders every row, each term once instead of n times; orderBy sorts
// all of them on two keys and renders ten, so it times the ID-level
// ORDER BY, whose keys are likewise decoded once per distinct term
// rather than once per comparison.
func BenchmarkMaterializeDecode(b *testing.B) {
	const n = 100
	st := crossProduct(n)
	const where = ` WHERE {
		?a <http://x/p1> ?b .
		?c <http://x/p2> ?d .
	}`
	for _, c := range []struct {
		name, query string
		rows        int
	}{
		{"all", `SELECT *` + where, n * n},
		{"orderBy", `SELECT *` + where + ` ORDER BY DESC(?d) ?b LIMIT 10`, 10},
	} {
		q := sparql.MustParse(c.query)
		res, err := Run(st, q.Patterns, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := Materialize(st, q, res)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != c.rows {
					b.Fatalf("rows = %d", len(rows))
				}
			}
		})
	}
}

// BenchmarkParallelCrossProduct is the engine-level speedup pair: the
// same unbudgeted cross product executed serially and with 4 workers.
// On a multi-core machine K=4 approaches a 4× speedup; on one core it
// degrades gracefully to ~1×.
func BenchmarkParallelCrossProduct(b *testing.B) {
	st := crossProduct(60)
	q := sparql.MustParse(crossQuery)
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(st, q.Patterns, Options{CountOnly: true, Parallelism: k}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
