package main

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testEntities stands in for the loaded dataset: the stream only needs
// department coordinates and a university count.
func testEntities() entities {
	e := entities{Universities: 5}
	for u := 0; u < 5; u++ {
		for d := 0; d < 12+u; d++ {
			e.Depts = append(e.Depts, dept{u, d})
		}
	}
	return e
}

func streamOf(t *testing.T, c *config, workload string, seed int64, n int) []request {
	t.Helper()
	w, err := c.workload(workload)
	if err != nil {
		t.Fatal(err)
	}
	return newReadStream(seed, c.wl.Prefix, c.templatesOf(w), w.Zipf, w.Block, testEntities()).take(n)
}

func loadTestConfig(t *testing.T) *config {
	t.Helper()
	c, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStreamIsDeterministicPerSeed(t *testing.T) {
	c := loadTestConfig(t)
	for _, w := range c.wl.Workloads {
		a, b := streamOf(t, c, w.Name, 1, 500), streamOf(t, c, w.Name, 1, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different request sequences", w.Name)
		}
		if other := streamOf(t, c, w.Name, 2, 500); reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 1 and 2 gave the same request sequence", w.Name)
		}
	}
}

func TestJoinsAndJoinsShardedStreamsAreByteIdentical(t *testing.T) {
	c := loadTestConfig(t)
	text := func(workload string) string {
		var sb strings.Builder
		for _, r := range streamOf(t, c, workload, 7, 400) {
			sb.WriteString(r.Text)
			sb.WriteByte(0)
		}
		return sb.String()
	}
	if text("joins") != text("joins-sharded") {
		t.Error("joins and joins-sharded must send the same bytes; only the server differs")
	}
	j, _ := c.workload("joins")
	s, _ := c.workload("joins-sharded")
	if j.RateQPS != s.RateQPS || j.Clients != s.Clients {
		t.Error("joins and joins-sharded must be offered at the same rate by the same number of clients")
	}
}

// Every block holds the same multiset of templates whatever the seed,
// so a phase of whole blocks costs the same on every seed.
func TestBlocksHaveFixedComposition(t *testing.T) {
	c := loadTestConfig(t)
	for _, w := range c.wl.Workloads {
		composition := func(seed int64, block int) []string {
			reqs := streamOf(t, c, w.Name, seed, w.Block*(block+1))[w.Block*block:]
			names := make([]string, len(reqs))
			for i, r := range reqs {
				names[i] = r.Template
			}
			sort.Strings(names)
			return names
		}
		first := composition(1, 0)
		if !reflect.DeepEqual(first, composition(1, 2)) || !reflect.DeepEqual(first, composition(99, 1)) {
			t.Errorf("%s: block composition varies", w.Name)
		}
		seen := map[string]bool{}
		for _, n := range first {
			seen[n] = true
		}
		if want := len(c.templatesOf(&w)); len(seen) != want {
			t.Errorf("%s: a block of %d draws reaches %d of %d templates", w.Name, w.Block, len(seen), want)
		}
	}
}

func TestUpdateStreamKeepsBoundedLiveBatches(t *testing.T) {
	spec := updateSpec{RatePerS: 20, TriplesPerBatch: 20, LiveBatches: 8}
	us := newUpdateStream(3, spec, testEntities())
	inserts, deletes := 0, 0
	for i := 0; i < 100; i++ {
		op := us.next()
		if n := strings.Count(op.Text, " .\n"); n != spec.TriplesPerBatch {
			t.Fatalf("op %d has %d triples, want %d", i, n, spec.TriplesPerBatch)
		}
		switch {
		case strings.HasPrefix(op.Text, "INSERT DATA") && op.Expect:
			inserts++
		case strings.HasPrefix(op.Text, "DELETE DATA") && !op.Expect:
			deletes++
		default:
			t.Fatalf("op %d: text and expected ASK answer disagree: %.40s / %v", i, op.Text, op.Expect)
		}
		if len(us.live) > spec.LiveBatches {
			t.Fatalf("%d batches live, limit %d", len(us.live), spec.LiveBatches)
		}
	}
	if rest := len(us.drain()); inserts-deletes != rest {
		t.Errorf("%d inserts, %d deletes, but drain deleted %d", inserts, deletes, rest)
	}
	if a, b := newUpdateStream(3, spec, testEntities()).next(), newUpdateStream(3, spec, testEntities()).next(); a != b {
		t.Error("the same seed gave two different update streams")
	}
}
