package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// The generator's IRI scheme (internal/datagen/lubm): every department
// has at least this many of each entity, so a constant drawn below
// names something that exists. The oracle fails the run if a drawn
// instance turns out empty.
const (
	lubmBase          = "http://www.lubm.example/"
	ubNS              = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
	rdfType           = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	fullProfsPerDept  = 8
	gradsPerDept      = 60
	undergradsPerDept = 150
	coursesPerDept    = 36
	gradCoursesPer    = 24
)

// dept names one department of the generated dataset.
type dept struct{ U, D int }

func (d dept) iri() string { return fmt.Sprintf("%sU%d/Dept%d", lubmBase, d.U, d.D) }

// entities is what the stream draws constants from: every department of
// the loaded dataset, and the university count.
type entities struct {
	Depts        []dept
	Universities int
}

// request is one generated input to the server.
type request struct {
	Template string
	Text     string
}

// apportion splits a block of n draws over len(weights) templates by
// largest remainder, so every block holds the same multiset of
// templates and the seed only decides their order and constants. That
// keeps the mix — and so the cost of a phase — identical across seeds.
func apportion(n int, weights []float64) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, len(weights))
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, len(weights))
	left := n
	for i, w := range weights {
		q := float64(n) * w / sum
		counts[i] = int(q)
		left -= counts[i]
		rems[i] = rem{i, q - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for k := 0; k < left; k++ {
		counts[rems[k].i]++
	}
	return counts
}

// zipfWeights returns 1/(rank+1)^s in template order; s = 0 is uniform.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// readStream generates a workload's read requests: template draws in
// shuffled fixed-composition blocks, entity constants uniform over all
// departments and universities.
type readStream struct {
	rng    *rand.Rand
	prefix string
	tmpls  []template
	ents   entities
	block  []int // template index per slot of the current block
	pos    int
}

func newReadStream(seed int64, prefix string, tmpls []template, zipf float64, block int, ents entities) *readStream {
	counts := apportion(block, zipfWeights(len(tmpls), zipf))
	s := &readStream{rng: rand.New(rand.NewSource(seed)), prefix: prefix, tmpls: tmpls, ents: ents}
	for i, c := range counts {
		for ; c > 0; c-- {
			s.block = append(s.block, i)
		}
	}
	s.pos = len(s.block)
	return s
}

func (s *readStream) next() request {
	if s.pos == len(s.block) {
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		s.pos = 0
	}
	t := s.tmpls[s.block[s.pos]]
	s.pos++
	return request{Template: t.Name, Text: s.prefix + s.instantiate(t.Query)}
}

func (s *readStream) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// instantiate replaces each ${placeholder} with a drawn entity IRI. A
// template's placeholders are independent draws.
func (s *readStream) instantiate(q string) string {
	for {
		i := strings.Index(q, "${")
		if i < 0 {
			return q
		}
		j := strings.IndexByte(q[i:], '}') + i
		q = q[:i] + s.entity(q[i+2:j]) + q[j+1:]
	}
}

func (s *readStream) entity(kind string) string {
	if kind == "univ" {
		return fmt.Sprintf("%sUniversity%d", lubmBase, s.rng.Intn(s.ents.Universities))
	}
	d := s.ents.Depts[s.rng.Intn(len(s.ents.Depts))].iri()
	switch kind {
	case "dept":
		return d
	case "course":
		return fmt.Sprintf("%s/Course%d", d, s.rng.Intn(coursesPerDept))
	case "prof":
		return fmt.Sprintf("%s/FullProfessor%d", d, s.rng.Intn(fullProfsPerDept))
	case "student":
		return fmt.Sprintf("%s/Undergrad%d", d, s.rng.Intn(undergradsPerDept))
	case "grad":
		return fmt.Sprintf("%s/Grad%d", d, s.rng.Intn(gradsPerDept))
	}
	panic("benchmark: unknown placeholder ${" + kind + "} in workloads.json")
}

// updateOp is one step of the write stream: an INSERT DATA or DELETE
// DATA request, and the ASK that must answer Expect once it is
// acknowledged.
type updateOp struct {
	Text   string
	Ask    string
	Expect bool
}

// updateStream generates churn's writes: batches of new graduate
// students in existing departments, built from LUBM's own classes and
// predicates so that query answers, maintained statistics and cached
// plans all move. Once LiveBatches batches are live the oldest is
// deleted before the next insert.
type updateStream struct {
	rng  *rand.Rand
	spec updateSpec
	ents entities
	seq  int
	live []liveBatch
}

type liveBatch struct{ triples, ask string }

func newUpdateStream(seed int64, spec updateSpec, ents entities) *updateStream {
	// A different source than the read stream, so adding a write
	// stream never changes the reads of the same seed.
	return &updateStream{rng: rand.New(rand.NewSource(seed ^ 0x5deece66d)), spec: spec, ents: ents}
}

func (u *updateStream) next() updateOp {
	if len(u.live) >= u.spec.LiveBatches {
		return u.deleteOldest()
	}
	b := u.newBatch()
	u.live = append(u.live, b)
	return updateOp{Text: "INSERT DATA {\n" + b.triples + "}", Ask: b.ask, Expect: true}
}

func (u *updateStream) deleteOldest() updateOp {
	b := u.live[0]
	u.live = u.live[1:]
	return updateOp{Text: "DELETE DATA {\n" + b.triples + "}", Ask: b.ask, Expect: false}
}

// drain returns the deletes that remove every live batch.
func (u *updateStream) drain() []updateOp {
	var ops []updateOp
	for len(u.live) > 0 {
		ops = append(ops, u.deleteOldest())
	}
	return ops
}

const triplesPerStudent = 10

func (u *updateStream) newBatch() liveBatch {
	var sb strings.Builder
	var ask string
	n := 0
	emit := func(s, p, o string) {
		if n < u.spec.TriplesPerBatch {
			fmt.Fprintf(&sb, "<%s> <%s> %s .\n", s, p, o)
			n++
		}
	}
	iri := func(s string) string { return "<" + s + ">" }
	for n < u.spec.TriplesPerBatch {
		d := u.ents.Depts[u.rng.Intn(len(u.ents.Depts))].iri()
		id := fmt.Sprintf("BenchGrad%d", u.seq)
		u.seq++
		s := d + "/" + id
		if ask == "" {
			ask = fmt.Sprintf("ASK { <%s> <%s> <%sGraduateStudent> }", s, rdfType, ubNS)
		}
		univ := func() string {
			return iri(fmt.Sprintf("%sUniversity%d", lubmBase, u.rng.Intn(u.ents.Universities)))
		}
		emit(s, rdfType, iri(ubNS+"GraduateStudent"))
		emit(s, ubNS+"name", `"`+id+`"`)
		emit(s, ubNS+"emailAddress", `"`+id+`@lubm.example"`)
		emit(s, ubNS+"memberOf", iri(d))
		emit(s, ubNS+"advisor", iri(fmt.Sprintf("%s/FullProfessor%d", d, u.rng.Intn(fullProfsPerDept))))
		emit(s, ubNS+"undergraduateDegreeFrom", univ())
		emit(s, ubNS+"degreeFrom", univ())
		c := u.rng.Intn(gradCoursesPer)
		for k := 0; k < triplesPerStudent-7; k++ {
			emit(s, ubNS+"takesCourse", iri(fmt.Sprintf("%s/GradCourse%d", d, (c+k)%gradCoursesPer)))
		}
	}
	return liveBatch{triples: sb.String(), ask: ask}
}
