package obsv

import (
	"io"
	"math"
	"strings"
	"testing"
)

func render(t *testing.T, write func(w io.Writer) error) string {
	t.Helper()
	var b strings.Builder
	if err := write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterVecEncoding(t *testing.T) {
	cases := []struct {
		name   string
		setup  func() *CounterVec
		expect []string
	}{
		{
			name: "no labels",
			setup: func() *CounterVec {
				c := NewCounterVec("t_total", "Things.")
				c.Add(1)
				c.Add(2.5)
				return c
			},
			expect: []string{
				"# HELP t_total Things.",
				"# TYPE t_total counter",
				"t_total 3.5",
			},
		},
		{
			name: "labeled series, sorted",
			setup: func() *CounterVec {
				c := NewCounterVec("q_total", "Queries.", "planner", "status")
				c.Add(2, "SS", "ok")
				c.Add(1, "GS", "ok")
				c.Add(1, "GS", "error")
				return c
			},
			expect: []string{
				`q_total{planner="GS",status="error"} 1`,
				`q_total{planner="GS",status="ok"} 1`,
				`q_total{planner="SS",status="ok"} 2`,
			},
		},
		{
			name: "label value escaping",
			setup: func() *CounterVec {
				c := NewCounterVec("e_total", "Escapes.", "v")
				c.Add(1, "a\"b\\c\nd")
				return c
			},
			expect: []string{`e_total{v="a\"b\\c\nd"} 1`},
		},
		{
			name: "help escaping",
			setup: func() *CounterVec {
				return NewCounterVec("h_total", "line1\nline2 \\ backslash")
			},
			expect: []string{`# HELP h_total line1\nline2 \\ backslash`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := render(t, tc.setup().write)
			for _, want := range tc.expect {
				if !strings.Contains(out, want+"\n") {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestCounterVecValue(t *testing.T) {
	c := NewCounterVec("v_total", "V.", "l")
	if got := c.Value("x"); got != 0 {
		t.Errorf("Value before write = %v", got)
	}
	c.Add(4, "x")
	if got := c.Value("x"); got != 4 {
		t.Errorf("Value = %v, want 4", got)
	}
}

func TestHistogramEncoding(t *testing.T) {
	cases := []struct {
		name    string
		buckets []float64
		obs     []float64
		expect  []string
	}{
		{
			name:    "cumulative buckets and +Inf",
			buckets: []float64{1, 5, 10},
			obs:     []float64{0.5, 0.7, 3, 100},
			expect: []string{
				`h_bucket{le="1"} 2`,
				`h_bucket{le="5"} 3`,
				`h_bucket{le="10"} 3`, // cumulativity: empty bucket repeats the running total
				`h_bucket{le="+Inf"} 4`,
				`h_sum 104.2`,
				`h_count 4`,
			},
		},
		{
			name:    "boundary value lands in its bucket",
			buckets: []float64{1, 5},
			obs:     []float64{1, 5},
			expect: []string{
				`h_bucket{le="1"} 1`,
				`h_bucket{le="5"} 2`,
				`h_bucket{le="+Inf"} 2`,
				`h_count 2`,
			},
		},
		{
			name:    "all overflow",
			buckets: []float64{1},
			obs:     []float64{7, 9},
			expect: []string{
				`h_bucket{le="1"} 0`,
				`h_bucket{le="+Inf"} 2`,
				`h_sum 16`,
				`h_count 2`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogramVec("h", "H.", tc.buckets)
			for _, v := range tc.obs {
				h.Observe(v)
			}
			out := render(t, h.write)
			if !strings.Contains(out, "# TYPE h histogram\n") {
				t.Errorf("missing TYPE line:\n%s", out)
			}
			for _, want := range tc.expect {
				if !strings.Contains(out, want+"\n") {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestHistogramLabels(t *testing.T) {
	h := NewHistogramVec("d", "D.", []float64{1}, "planner")
	h.Observe(0.5, "SS")
	h.Observe(2, "SS")
	h.Observe(0.1, "GS")
	out := render(t, h.write)
	for _, want := range []string{
		`d_bucket{planner="GS",le="1"} 1`,
		`d_bucket{planner="GS",le="+Inf"} 1`,
		`d_bucket{planner="SS",le="1"} 1`,
		`d_bucket{planner="SS",le="+Inf"} 2`,
		`d_sum{planner="SS"} 2.5`,
		`d_count{planner="SS"} 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if h.Count("SS") != 2 || h.Count("GS") != 1 {
		t.Errorf("Count = %d/%d, want 2/1", h.Count("SS"), h.Count("GS"))
	}
}

func TestGaugeFuncEncoding(t *testing.T) {
	g := NewFunc("sz", "Size.", Gauge, "", Value(func() float64 { return 42 }))
	out := render(t, g.write)
	want := "# HELP sz Size.\n# TYPE sz gauge\nsz 42\n"
	if out != want {
		t.Errorf("gauge output = %q, want %q", out, want)
	}
	c := NewFunc("c_total", "C.", Counter, "shard", func() map[string]float64 {
		return map[string]float64{"1": 3, "0": 2}
	})
	out = render(t, c.write)
	want = "# HELP c_total C.\n# TYPE c_total counter\nc_total{shard=\"0\"} 2\nc_total{shard=\"1\"} 3\n"
	if out != want {
		t.Errorf("labeled counter output = %q, want %q", out, want)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:    "0",
		1.5:  "1.5",
		1e10: "1e+10",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatValue(math.Inf(1)); got != "+Inf" {
		t.Errorf("formatValue(+Inf) = %q", got)
	}
	if got := formatValue(math.Inf(-1)); got != "-Inf" {
		t.Errorf("formatValue(-Inf) = %q", got)
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}
