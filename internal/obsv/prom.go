package obsv

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file implements the small subset of the Prometheus text
// exposition format (version 0.0.4) the collector needs, as the three
// Family types: CounterVec and HistogramVec for events, Func for counts
// read at scrape time. Series within a family render in sorted label
// order so output is deterministic and testable.

// Family is one metric family a Collector renders; Register adds it.
type Family interface {
	Name() string
	write(io.Writer) error
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabelValue(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline only.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value; +Inf/-Inf/NaN use the spec names.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// seriesName renders `name{l1="v1",...}`, omitting braces when there are
// no labels. extra appends trailing label pairs (used for `le`).
func seriesName(name string, labels, values []string, extra ...string) string {
	if len(labels) == 0 && len(extra) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	sep := ""
	for i, l := range labels {
		fmt.Fprintf(&b, `%s%s="%s"`, sep, l, escapeLabelValue(values[i]))
		sep = ","
	}
	for i := 0; i+1 < len(extra); i += 2 {
		fmt.Fprintf(&b, `%s%s="%s"`, sep, extra[i], escapeLabelValue(extra[i+1]))
		sep = ","
	}
	b.WriteByte('}')
	return b.String()
}

func writeHeader(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
	return err
}

// seriesKey joins label values into a map key; \xff cannot appear in
// valid UTF-8 label values, so the key is unambiguous.
func seriesKey(values []string) string { return strings.Join(values, "\xff") }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CounterVec is a monotonically increasing counter family partitioned by
// a fixed set of label names (possibly none).
type CounterVec struct {
	name, help string
	labels     []string
	mu         sync.Mutex
	series     map[string]*counterSeries
}

type counterSeries struct {
	values []string
	val    float64
}

// NewCounterVec declares a counter family.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{name: name, help: help, labels: labels, series: map[string]*counterSeries{}}
}

// Name returns the family name.
func (c *CounterVec) Name() string { return c.name }

// Add increments the series identified by values (one per label) by
// delta, creating it at zero first. delta must be non-negative.
func (c *CounterVec) Add(delta float64, values ...string) {
	if len(values) != len(c.labels) {
		panic(fmt.Sprintf("obsv: %s wants %d label values, got %d", c.name, len(c.labels), len(values)))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := seriesKey(values)
	s := c.series[key]
	if s == nil {
		s = &counterSeries{values: append([]string(nil), values...)}
		c.series[key] = s
	}
	s.val += delta
}

// Value returns the current value of a series (0 when never written).
func (c *CounterVec) Value(values ...string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.series[seriesKey(values)]; s != nil {
		return s.val
	}
	return 0
}

func (c *CounterVec) write(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := writeHeader(w, c.name, c.help, "counter"); err != nil {
		return err
	}
	for _, k := range sortedKeys(c.series) {
		s := c.series[k]
		if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(c.name, c.labels, s.values), formatValue(s.val)); err != nil {
			return err
		}
	}
	return nil
}

// HistogramVec is a histogram family with fixed upper-bound buckets (the
// +Inf bucket is implicit) partitioned by label names.
type HistogramVec struct {
	name, help string
	labels     []string
	buckets    []float64 // ascending upper bounds, +Inf excluded
	mu         sync.Mutex
	series     map[string]*histSeries
}

type histSeries struct {
	values []string
	counts []uint64 // per-bucket (non-cumulative); cumulated at render
	count  uint64   // total observations (= the +Inf bucket, cumulative)
	sum    float64
}

// NewHistogramVec declares a histogram family with the given ascending
// bucket upper bounds.
func NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obsv: %s buckets not ascending", name))
		}
	}
	return &HistogramVec{
		name: name, help: help, labels: labels,
		buckets: append([]float64(nil), buckets...),
		series:  map[string]*histSeries{},
	}
}

// Name returns the family name.
func (h *HistogramVec) Name() string { return h.name }

// Observe records one observation v on the series identified by values.
func (h *HistogramVec) Observe(v float64, values ...string) {
	if len(values) != len(h.labels) {
		panic(fmt.Sprintf("obsv: %s wants %d label values, got %d", h.name, len(h.labels), len(values)))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	key := seriesKey(values)
	s := h.series[key]
	if s == nil {
		s = &histSeries{values: append([]string(nil), values...), counts: make([]uint64, len(h.buckets))}
		h.series[key] = s
	}
	for i, ub := range h.buckets {
		if v <= ub {
			s.counts[i]++
			break
		}
	}
	s.count++
	s.sum += v
}

// Count returns the number of observations on a series.
func (h *HistogramVec) Count(values ...string) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s := h.series[seriesKey(values)]; s != nil {
		return s.count
	}
	return 0
}

func (h *HistogramVec) write(w io.Writer) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := writeHeader(w, h.name, h.help, "histogram"); err != nil {
		return err
	}
	for _, k := range sortedKeys(h.series) {
		s := h.series[k]
		var cum uint64
		for i, ub := range h.buckets {
			cum += s.counts[i]
			name := seriesName(h.name+"_bucket", h.labels, s.values, "le", formatValue(ub))
			if _, err := fmt.Fprintf(w, "%s %d\n", name, cum); err != nil {
				return err
			}
		}
		name := seriesName(h.name+"_bucket", h.labels, s.values, "le", "+Inf")
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(h.name+"_sum", h.labels, s.values), formatValue(s.sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(h.name+"_count", h.labels, s.values), s.count); err != nil {
			return err
		}
	}
	return nil
}

// Kind is the Prometheus type a Func declares.
type Kind string

// The two kinds a scrape-time family may declare.
const (
	Counter Kind = "counter"
	Gauge   Kind = "gauge"
)

// Func is a family whose series are read at scrape time from the
// component that already keeps the count: read returns one value per
// label value, or, for an unlabeled family, one value under the key "".
// A Counter func must be non-decreasing per key.
type Func struct {
	name, help, label string
	kind              Kind
	read              func() map[string]float64
}

// NewFunc declares a scrape-time family; label is "" for a family of one
// unlabeled series.
func NewFunc(name, help string, kind Kind, label string, read func() map[string]float64) *Func {
	return &Func{name: name, help: help, label: label, kind: kind, read: read}
}

// Value adapts a single reading to a Func's read function.
func Value(read func() float64) func() map[string]float64 {
	return func() map[string]float64 { return map[string]float64{"": read()} }
}

// Name returns the family name.
func (f *Func) Name() string { return f.name }

func (f *Func) write(w io.Writer) error {
	if err := writeHeader(w, f.name, f.help, string(f.kind)); err != nil {
		return err
	}
	var labels []string
	if f.label != "" {
		labels = []string{f.label}
	}
	vals := f.read()
	for _, k := range sortedKeys(vals) {
		if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(f.name, labels, []string{k}), formatValue(vals[k])); err != nil {
			return err
		}
	}
	return nil
}
