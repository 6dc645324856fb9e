package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_qps", Better: "higher", Bound: 0.07}
	for _, tc := range []struct {
		name       string
		def        metricDef
		base, cand []float64
		want       string
	}{
		{"within bound", lower, []float64{10}, []float64{10.9}, "ok"},
		{"improved", lower, []float64{10}, []float64{5}, "ok"},
		{"worse than bound", lower, []float64{10}, []float64{11.1}, "regressed"},
		{"higher is better, dropped", higher, []float64{100}, []float64{92}, "regressed"},
		{"higher is better, within", higher, []float64{100}, []float64{94}, "ok"},
		// The base's own repeats spread over 30 % of their median: the
		// pair cannot resolve a 10 % bound either way.
		{"noisy base", lower, []float64{8, 10, 10, 12, 14}, []float64{10}, "unresolved"},
		{"noisy candidate", lower, []float64{10, 10.1, 10.2}, []float64{9, 12, 16}, "unresolved"},
		{"steady repeats, regression", lower, []float64{10, 10.1, 10.2}, []float64{12, 12.1, 12.2}, "regressed"},
	} {
		if _, _, _, got := verdict(tc.def, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
