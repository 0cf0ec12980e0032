package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"pepatags/internal/sweep"
)

// driftSpec is a small spec that reaches every branch of the engine's
// per-point evaluation.
func driftSpec() *sweep.Spec {
	exp := sweep.ServiceSpec{Kind: "exp", Mu: 10}
	h2 := sweep.ServiceSpec{Kind: "h2", Mean: 0.1, Alpha: 0.9, Ratio: 10}
	return &sweep.Spec{
		Schema: sweep.SpecSchema,
		Name:   "drift",
		Groups: []sweep.Group{{
			Point: sweep.Point{Series: "exp", Model: "tagexp", Lambda: 5, T: 8, N: 2, K1: 3, K2: 3, Service: exp},
			Axes:  []sweep.Axis{{Field: "lambda", Values: []float64{3, 6}}},
		}},
		Points: []sweep.Point{
			{Series: "h2", Model: "tagh2", Lambda: 4, T: 6, N: 2, K1: 3, K2: 2, Service: h2},
			{Series: "opt-coarse", Model: "opt-t", Metric: "max-throughput", TLo: 2, THi: 9, TStep: 3, Lambda: 9, N: 2, K1: 3, K2: 3, Service: h2},
			{Series: "opt-fine", Model: "opt-t", Metric: "min-response", TLo: 2, THi: 5, Lambda: 5, N: 2, K1: 3, K2: 3, Service: exp},
			{Series: "opt-queue", Model: "opt-t", Metric: "min-queue", TLo: 2, THi: 4, Lambda: 5, N: 2, K1: 2, K2: 3, Service: exp},
			{Series: "random", Model: "random", Lambda: 5, K1: 4, Service: h2},
			{Series: "rr", Model: "round-robin", Lambda: 5, K1: 4, Service: exp},
			{Series: "sq", Model: "shortest-queue", Lambda: 5, K1: 4, Service: exp},
		},
	}
}

// TestTracedSweepMatchesEngine keeps the traced pass's outside copy of
// the engine's per-point evaluation equal to sweep.Run, row for row and
// bit for bit.
func TestTracedSweepMatchesEngine(t *testing.T) {
	spec := driftSpec()
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run(spec, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		tr := newTracer()
		rows, st, err := tracedSweep(tr, points, workers)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !sameRows(rows, res.Rows) {
			t.Fatalf("workers %d: traced rows differ from sweep.Run:\n got %v\nwant %v", workers, rows, res.Rows)
		}
		if st.optPoints != 3 || st.evals == 0 || st.maxResidual > residualBound {
			t.Errorf("workers %d: stats %+v", workers, st)
		}
		ls := layerIndex(layerTable(tr.spans))
		for _, name := range []string{"sweep.point", "approx.search", "approx.eval", "core.skeleton",
			"ctmc.instantiate", "linalg.solve", "check.residual", "core.analyze_chain", "core.baseline"} {
			if ls[name].Spans == 0 {
				t.Errorf("workers %d: no %s spans", workers, name)
			}
		}
		if got := ls["sweep.point"].Spans; got != len(points) {
			t.Errorf("workers %d: %d point spans, want %d", workers, got, len(points))
		}
	}
}

func TestLayerTableSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "batch", Start: 0, End: 10 * ms},
		// Two overlapping children cover [1, 8) ms.
		{ID: 2, Parent: 1, Name: "rep", Start: 1 * ms, End: 6 * ms},
		{ID: 3, Parent: 1, Name: "rep", Start: 4 * ms, End: 8 * ms},
		// An aggregate child of the first replication.
		{ID: 4, Parent: 2, Name: "route", Start: 1 * ms, End: 3 * ms, Calls: 50},
	}
	ls := layerIndex(layerTable(spans))
	check := func(name string, spans, calls int, total, self time.Duration) {
		t.Helper()
		l := ls[name]
		near := func(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }
		if l.Spans != spans || l.Calls != calls || !near(l.TotalS, total.Seconds()) || !near(l.SelfS, self.Seconds()) {
			t.Errorf("%s: got %+v, want spans %d calls %d total %v self %v", name, l, spans, calls, total, self)
		}
	}
	check("batch", 1, 1, 10*time.Millisecond, 3*time.Millisecond)
	check("rep", 2, 2, 9*time.Millisecond, 7*time.Millisecond)
	check("route", 1, 50, 2*time.Millisecond, 2*time.Millisecond)
}

func TestNilTracerRunsCalls(t *testing.T) {
	var tr *tracer
	called := false
	if err := tr.do("x", 0, -1, func(int) error { called = true; return nil }); err != nil || !called || tr.now() != 0 {
		t.Fatalf("nil tracer: err %v, called %v", err, called)
	}
}

func TestCheckRow(t *testing.T) {
	p := sweep.Point{Series: "s", X: 1, Lambda: 2}
	good := func() sweep.Row {
		return sweep.Row{Seq: 0, Series: "s", X: 1, Measures: map[string]float64{
			"states": 10, "throughput": 1.5, "loss": 0.5, "L": 1, "W": 1 / 1.5, "util1": 0.5, "util2": 0.25, "t_opt": 7,
		}}
	}
	ref := &sweepRowRef{Series: "s", X: 1, Measures: good().Measures}
	if err := checkRow(0, p, good(), ref, true); err != nil {
		t.Fatalf("good row: %v", err)
	}
	cases := map[string]struct {
		edit  func(r *sweep.Row)
		exact bool
		ref   bool
	}{
		"wrong seq":      {func(r *sweep.Row) { r.Seq = 1 }, false, false},
		"flow imbalance": {func(r *sweep.Row) { r.Measures["loss"] = 0.4 }, false, false},
		"utilisation":    {func(r *sweep.Row) { r.Measures["util2"] = 1.5 }, false, false},
		"little":         {func(r *sweep.Row) { r.Measures["W"] *= 1.001 }, false, false},
		"states":         {func(r *sweep.Row) { r.Measures["states"] = 11 }, false, true},
		"t_opt":          {func(r *sweep.Row) { r.Measures["t_opt"] = 8 }, true, true},
		"measure":        {func(r *sweep.Row) { r.Measures["L"] = 1.001 }, true, true},
	}
	for name, c := range cases {
		r := good()
		c.edit(&r)
		var rf *sweepRowRef
		if c.ref {
			rf = ref
		}
		if err := checkRow(0, p, r, rf, c.exact); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
	// Away from the reference seed only shape-determined outputs are
	// compared.
	r := good()
	r.Measures["L"], r.Measures["W"] = 1.5, 1
	if err := checkRow(0, p, r, ref, false); err != nil {
		t.Errorf("inexact check compared measures: %v", err)
	}
	r.Measures["states"] = 9
	if err := checkRow(0, p, r, ref, false); !errors.Is(err, errMismatch) {
		t.Errorf("state mismatch: got %v, want errMismatch", err)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// equal to the ones the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	for _, w := range cfg.Workloads {
		if _, err := newBench(w.Name); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
}

// TestReferenceCoversSpecs catches a grid change made without
// regenerating the reference.
func TestReferenceCoversSpecs(t *testing.T) {
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig12-optt", "scan-cold", "sim-cluster"} {
		b, err := newBench(name)
		if err != nil {
			t.Fatal(err)
		}
		sb, ok := b.(*sweepBench)
		if !ok {
			if ref.Sim == nil || ref.Sim.Events == 0 {
				t.Errorf("%s: no reference outcome", name)
			}
			continue
		}
		for _, seed := range []uint64{refSeed, 7} {
			if err := sb.setup(seed, ref, nil); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

func TestScanSpecIsColdAndSeeded(t *testing.T) {
	a, _ := scanSpec(1)
	b, _ := scanSpec(1)
	c, _ := scanSpec(2)
	keys := make(map[string]bool)
	for i, p := range a.Points {
		key, ok := p.ShapeKey()
		if !ok || keys[key] {
			t.Fatalf("point %d: shape key %q repeats or is uncached", i, key)
		}
		keys[key] = true
		if !sameFloat(p.Lambda, b.Points[i].Lambda) {
			t.Fatalf("point %d: same seed, different lambda", i)
		}
		if d := p.Lambda/scanLambda - 1; d < -scanBand || d > scanBand {
			t.Fatalf("point %d: lambda %g outside the band", i, p.Lambda)
		}
	}
	if sameFloat(a.Points[0].Lambda, c.Points[0].Lambda) {
		t.Error("seeds 1 and 2 drew the same lambda")
	}
}

// TestSimRounds runs a small cluster through an untraced batch and a
// traced round.
func TestSimRounds(t *testing.T) {
	b := &simBench{jobs: 3000, reps: 4, nodes: 20, workers: 2}
	tr := newTracer()
	if err := b.setup(3, nil, tr); err != nil {
		t.Fatal(err)
	}
	items, _, o := b.batch()
	if items != 3000*4 || o.failed != 0 || o.attempted != 4 {
		t.Fatalf("batch: items %d, ops %+v", items, o)
	}
	m, o := b.tracedRound(tr)
	if o.failed != 0 || o.attempted != 8 {
		t.Fatalf("traced round: ops %+v", o)
	}
	if m["policies.route_calls"] != 3000*4 || m["sim.events"] < 2*3000*4*0.9 || m["sim.run_s"] <= 0 {
		t.Errorf("metrics %v", m)
	}
	if r := m["sim.rep_busy_ratio"]; r <= 0 || r > 1.01 {
		t.Errorf("rep busy ratio %g", r)
	}
	if m["workload.gen_s"] <= 0 || m["workload.parse_s"] <= 0 {
		t.Errorf("workload layer times %v %v", m["workload.gen_s"], m["workload.parse_s"])
	}
	ls := layerIndex(layerTable(tr.spans))
	if ls["sim.replication"].Spans != 4 || ls["policies.route"].Calls != 3000*4 {
		t.Errorf("spans %+v", ls)
	}
	// A different outcome at the same seed is a failure.
	b.first.Completed++
	if _, _, o := b.batch(); o.failed != b.reps {
		t.Errorf("changed outcome: ops %+v", o)
	}
}

func TestMedianAndRatio(t *testing.T) {
	if median(nil) != 0 || median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median")
	}
	if ratio(1, 0) != 0 || ratio(1, 4) != 0.25 {
		t.Error("ratio")
	}
}

func TestParseCacheSize(t *testing.T) {
	for in, want := range map[string]int64{"32K": 32 << 10, "30M": 30 << 20, "512": 512} {
		if got, ok := parseCacheSize(in); !ok || got != want {
			t.Errorf("%s: got %d %v", in, got, ok)
		}
	}
	if _, ok := parseCacheSize("x"); ok {
		t.Error("parsed garbage")
	}
}
