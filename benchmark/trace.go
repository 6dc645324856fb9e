package main

import "time"

// span is one timed call into a layer, made from the benchmark's own
// process. Spans of one request share Request; Parent is the ID of the
// span one nesting depth out (-1 for the outermost).
//
// Each depth of a request is a separate execution of that request — the
// HTTP round trip, then the handler alone, then the facade alone, then
// the leaves — so a child's interval does not lie inside its parent's.
// Parent says whose duration the child's is subtracted from to get the
// parent's self time.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// time runs fn as a span and returns the span's ID.
func (t *tracer) time(name string, parent, request int, fn func()) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name})
	start := time.Since(t.origin)
	fn()
	end := time.Since(t.origin)
	t.spans[id].StartNS, t.spans[id].EndNS = int64(start), int64(end)
	return id
}

func (t *tracer) dur(id int) time.Duration {
	return time.Duration(t.spans[id].EndNS - t.spans[id].StartNS)
}

// selfTimes returns, per span name, each span's duration minus the
// durations of its children, in request order.
func (t *tracer) selfTimes() map[string][]time.Duration {
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += time.Duration(s.EndNS - s.StartNS)
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.EndNS-s.StartNS)-children[s.ID])
	}
	return out
}

// durations returns the durations of the spans of one name, in request
// order.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNS-s.StartNS))
		}
	}
	return out
}
