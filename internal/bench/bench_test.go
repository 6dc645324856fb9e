package bench

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// shared small datasets: building them is the expensive part of these
// tests, so do it once.
var shared struct {
	once               sync.Once
	lubm, watdiv, yago *Dataset
	err                error
}

func load(t *testing.T) (*Dataset, *Dataset, *Dataset) {
	t.Helper()
	shared.once.Do(func() {
		if shared.lubm, shared.err = LUBMDataset(Small); shared.err != nil {
			return
		}
		if shared.watdiv, shared.err = WatDivDataset(Small); shared.err != nil {
			return
		}
		shared.yago, shared.err = YAGODataset(Small)
	})
	if shared.err != nil {
		t.Fatal(shared.err)
	}
	return shared.lubm, shared.watdiv, shared.yago
}

var testCfg = RunConfig{Runs: 2, Seed: 1}

func TestDatasetAssembly(t *testing.T) {
	l, w, y := load(t)
	for _, d := range []*Dataset{l, w, y} {
		if d.Store.Len() == 0 {
			t.Errorf("%s: empty store", d.Name)
		}
		if !d.Shapes.Annotated() {
			t.Errorf("%s: shapes not annotated", d.Name)
		}
		if d.CS.NumSets() == 0 {
			t.Errorf("%s: no characteristic sets", d.Name)
		}
		if d.Summary.NumBuckets() == 0 {
			t.Errorf("%s: empty summary", d.Name)
		}
		if d.Prep.ShapesAnnotatedBytes <= d.Prep.ShapesPlainBytes {
			t.Errorf("%s: annotation did not grow the shapes serialization", d.Name)
		}
		if len(d.Queries) == 0 {
			t.Errorf("%s: no workload", d.Name)
		}
	}
	// YAGO's heterogeneity must show in its shape count
	if y.Shapes.Len() < 10*l.Shapes.Len() {
		t.Errorf("YAGO shapes (%d) not much larger than LUBM's (%d)", y.Shapes.Len(), l.Shapes.Len())
	}
}

func TestPlannersAndEstimators(t *testing.T) {
	l, _, _ := load(t)
	planners := l.Planners()
	if len(planners) != len(ApproachNames) {
		t.Fatalf("planners = %d, want %d", len(planners), len(ApproachNames))
	}
	for i, p := range planners {
		if p.Name() != ApproachNames[i] {
			t.Errorf("planner %d = %s, want %s", i, p.Name(), ApproachNames[i])
		}
	}
	if _, err := l.Planner("nosuch"); err == nil {
		t.Error("unknown planner accepted")
	}
	if l.Estimator("Jena") != nil {
		t.Error("Jena must have no estimator")
	}
	for _, name := range []string{"SS", "GS", "GDB", "CS", "SumRDF"} {
		if l.Estimator(name) == nil {
			t.Errorf("estimator %s missing", name)
		}
	}
}

func TestRuntimeExperimentShape(t *testing.T) {
	l, _, _ := load(t)
	rs, err := RuntimeExperiment(l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(l.Queries)*len(ApproachNames) {
		t.Fatalf("results = %d, want %d", len(rs), len(l.Queries)*len(ApproachNames))
	}
	for _, r := range rs {
		if r.MeanOps <= 0 {
			t.Errorf("%s/%s: non-positive ops", r.Query, r.Approach)
		}
	}
	w := Winners(rs)
	total := 0
	for _, n := range w.Wins {
		total += n
	}
	if total != len(l.Queries) {
		t.Errorf("winners cover %d queries, want %d", total, len(l.Queries))
	}
	// the paper's headline: SS proposes the best plan for most queries
	// and its overhead versus the per-query best plan stays small
	if w.Wins["SS"] < len(l.Queries)/2 {
		t.Errorf("SS wins only %d of %d queries", w.Wins["SS"], len(l.Queries))
	}
	if w.SSOverhead > w.GSOverhead {
		t.Errorf("SS overhead %.2f worse than GS %.2f", w.SSOverhead, w.GSOverhead)
	}
	if out := FormatRuntime(rs); !strings.Contains(out, "Q9") {
		t.Error("FormatRuntime misses queries")
	}
	if out := FormatWinners(w); !strings.Contains(out, "SS=") {
		t.Error("FormatWinners misses SS")
	}
}

func TestQErrorExperimentShape(t *testing.T) {
	l, _, _ := load(t)
	qs, err := QErrorExperiment(l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	// 5 estimators (Jena excluded)
	if len(qs) != len(l.Queries)*5 {
		t.Fatalf("results = %d, want %d", len(qs), len(l.Queries)*5)
	}
	perApproach := map[string][]QErrorResult{}
	for _, r := range qs {
		if r.QError < 1 {
			t.Errorf("%s/%s: q-error %v below 1", r.Query, r.Approach, r.QError)
		}
		perApproach[r.Approach] = append(perApproach[r.Approach], r)
	}
	// SS must dominate GS in aggregate (geometric mean of q-errors)
	if gm(perApproach["SS"]) > gm(perApproach["GS"]) {
		t.Errorf("SS gmean q-error %.2f worse than GS %.2f",
			gm(perApproach["SS"]), gm(perApproach["GS"]))
	}
	// CS must be (near-)exact on LUBM star queries
	for _, r := range perApproach["CS"] {
		if strings.HasPrefix(r.Query, "S") && r.QError > 1.5 {
			t.Errorf("CS q-error %v on star query %s", r.QError, r.Query)
		}
	}
	buckets := QErrorBuckets(qs)
	sum := 0
	for _, b := range buckets {
		sum += b[0] + b[1] + b[2]
	}
	if sum != len(qs) {
		t.Errorf("buckets cover %d results, want %d", sum, len(qs))
	}
	if out := FormatQError(qs); !strings.Contains(out, "true-card") {
		t.Error("FormatQError header missing")
	}
	if out := FormatQErrorBuckets(buckets); !strings.Contains(out, "<15") {
		t.Error("FormatQErrorBuckets header missing")
	}
}

// gm is the geometric mean of the q-errors.
func gm(rs []QErrorResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, r := range rs {
		logSum += math.Log(r.QError)
	}
	return math.Exp(logSum / float64(len(rs)))
}

func TestCostExperimentShape(t *testing.T) {
	l, _, _ := load(t)
	cs, err := CostExperiment(l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != len(l.Queries)*2 {
		t.Fatalf("results = %d, want %d", len(cs), len(l.Queries)*2)
	}
	for _, c := range cs {
		if c.EstimatedCost <= 0 || c.TrueCost <= 0 {
			t.Errorf("%s/%s: non-positive costs %+v", c.Query, c.Approach, c)
		}
	}
	if out := FormatCost(cs); !strings.Contains(out, "SS est-cost") {
		t.Error("FormatCost header missing")
	}
}

func TestTable2Experiment(t *testing.T) {
	l, _, _ := load(t)
	ts, err := Table2Experiment(l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].Approach != "GS" || ts[1].Approach != "SS" {
		t.Fatalf("tables = %+v", ts)
	}
	for _, tab := range ts {
		if len(tab.Rows) != 9 {
			t.Errorf("%s: %d rows, want the paper's 9", tab.Approach, len(tab.Rows))
		}
		if tab.EstTotal <= 0 || tab.TrueTotal <= 0 {
			t.Errorf("%s: totals %+v", tab.Approach, tab)
		}
	}
	// shape statistics must tighten the estimated cost toward the truth
	gsGap := ratio(ts[0].EstTotal, ts[0].TrueTotal)
	ssGap := ratio(ts[1].EstTotal, ts[1].TrueTotal)
	if ssGap > gsGap {
		t.Errorf("SS cost gap %.2f worse than GS %.2f", ssGap, gsGap)
	}
	out := FormatTable2(ts)
	for _, want := range []string{"O_gs", "O_ss", "ub:FullProfessor", "Σ="} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable2 missing %q", want)
		}
	}
}

func ratio(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if b == 0 {
		return a
	}
	return a / b
}

func TestTable3(t *testing.T) {
	l, w, y := load(t)
	rows := Table3(l, w, y)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Triples <= 0 || r.DistinctSubjects <= 0 || r.DistinctObjects <= 0 {
			t.Errorf("%s: %+v", r.Dataset, r)
		}
	}
	// YAGO's class count dominates, as in the paper's Table 3
	if rows[2].DistinctTypeObjects <= rows[0].DistinctTypeObjects {
		t.Error("YAGO must have many more classes than LUBM")
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "# of triples") || !strings.Contains(out, "YAGO-4") {
		t.Errorf("FormatTable3 output:\n%s", out)
	}
}

func TestPreprocessingComparison(t *testing.T) {
	l, _, _ := load(t)
	p := l.Prep
	// the paper's headline: annotation is much cheaper than CS
	// extraction; exact ratios vary but CS must not be cheaper
	if p.AnnotateTime > p.CSTime {
		t.Errorf("annotate %v slower than charsets %v", p.AnnotateTime, p.CSTime)
	}
	if out := FormatPrep(l); !strings.Contains(out, "LUBM") {
		t.Error("FormatPrep missing dataset")
	}
}

func TestQueryByName(t *testing.T) {
	l, _, _ := load(t)
	if _, err := l.QueryByName("C0"); err != nil {
		t.Error(err)
	}
	if _, err := l.QueryByName("nope"); err == nil {
		t.Error("unknown query accepted")
	}
}

func TestPlanningTimeExperiment(t *testing.T) {
	l, _, _ := load(t)
	rs, err := PlanningTimeExperiment(l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(l.Queries)*len(ApproachNames) {
		t.Fatalf("results = %d", len(rs))
	}
	for _, r := range rs {
		// the paper reports < 20 ms for all approaches; allow generous
		// slack for CI noise but catch pathological planners
		if r.MaxUs > 100_000 {
			t.Errorf("%s/%s: planning took %.0f µs", r.Query, r.Approach, r.MaxUs)
		}
	}
	if out := FormatPlanningTime(rs); !strings.Contains(out, "max-plan-µs") {
		t.Error("FormatPlanningTime header missing")
	}
}

func TestCSVWriters(t *testing.T) {
	l, _, _ := load(t)
	var buf strings.Builder

	rs, err := RuntimeExperiment(l, RunConfig{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteRuntimeCSV(&buf, rs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(rs)+1 {
		t.Errorf("runtime csv rows = %d, want %d", len(lines), len(rs)+1)
	}
	if !strings.HasPrefix(lines[0], "query,approach,mean_ms") {
		t.Errorf("runtime csv header = %q", lines[0])
	}

	buf.Reset()
	qs, err := QErrorExperiment(l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteQErrorCSV(&buf, qs); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(qs)+1 {
		t.Errorf("qerror csv rows = %d, want %d", got, len(qs)+1)
	}

	buf.Reset()
	cs, err := CostExperiment(l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCostCSV(&buf, cs); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(cs)+1 {
		t.Errorf("cost csv rows = %d, want %d", got, len(cs)+1)
	}

	buf.Reset()
	if err := WriteTable3CSV(&buf, Table3(l)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LUBM") {
		t.Error("table3 csv missing dataset")
	}

	buf.Reset()
	ps, err := PlanningTimeExperiment(l, RunConfig{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePlanningTimeCSV(&buf, ps); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(ps)+1 {
		t.Errorf("planning csv rows = %d, want %d", got, len(ps)+1)
	}
}

func TestRuntimeExperimentOtherDatasets(t *testing.T) {
	_, w, y := load(t)
	for _, d := range []*Dataset{w, y} {
		rs, err := RuntimeExperiment(d, RunConfig{Runs: 1, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		wn := Winners(rs)
		total := 0
		for _, n := range wn.Wins {
			total += n
		}
		if total != len(d.Queries) {
			t.Errorf("%s: winners cover %d of %d queries", d.Name, total, len(d.Queries))
		}
		// SS must stay competitive on every dataset: within 2x of the
		// per-query best on average
		if wn.SSOverhead > 2 {
			t.Errorf("%s: SS overhead %.2fx", d.Name, wn.SSOverhead)
		}
	}
}

func TestQErrorExperimentYAGO(t *testing.T) {
	_, _, y := load(t)
	qs, err := QErrorExperiment(y, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	per := map[string][]QErrorResult{}
	for _, r := range qs {
		per[r.Approach] = append(per[r.Approach], r)
	}
	// the heterogeneous dataset is where scoped statistics matter most:
	// SS must not be worse than GS
	if gm(per["SS"]) > gm(per["GS"]) {
		t.Errorf("SS gmean %.2f worse than GS %.2f on YAGO", gm(per["SS"]), gm(per["GS"]))
	}
}

// TestTraceExperimentCarriesJoinAlgorithms: the bench traces cmd/repro
// prints are the served path's traces. A LUBM query the cost model runs
// as a sort-merge prefix carries the per-step algorithm in its trace,
// and the trace is finished the way /trace/recent's are.
func TestTraceExperimentCarriesJoinAlgorithms(t *testing.T) {
	l, _, _ := load(t)
	c, err := TraceExperiment(l, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := 0
	for _, tr := range c.Recent(0) {
		if tr.Err != "" || len(tr.Patterns) == 0 || tr.Patterns[0].Algo != "merge" {
			continue
		}
		merged++
		if !strings.Contains(tr.Plan, "algo=merge") {
			t.Errorf("%s: merge trace over a plan without merge steps:\n%s", tr.Query, tr.Plan)
		}
		for i, p := range tr.Patterns[1:] {
			if p.Algo != "merge" && p.Algo != "nl" {
				t.Errorf("%s: step %d algo = %q, want merge or nl", tr.Query, i+1, p.Algo)
			}
		}
	}
	if merged == 0 {
		t.Error("no LUBM trace ran a merge prefix")
	}
}
