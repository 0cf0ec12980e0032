package core

import (
	"math"
	"testing"

	"pepatags/internal/dist"
	"pepatags/internal/numeric"
	"pepatags/internal/queueing"
)

func close(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if !numeric.AlmostEqual(got, want, tol) {
		t.Fatalf("%s: got %v want %v", name, got, want)
	}
}

func TestTAGExpStateCountMatchesPaper(t *testing.T) {
	// Section 5: n = 6, K1 = K2 = 10 "gives rise to a model of 4331
	// states".
	m := NewTAGExp(5, 10, 42, 6, 10, 10)
	c := m.Build()
	if c.NumStates() != 4331 {
		t.Fatalf("states %d want 4331", c.NumStates())
	}
	if err := c.CheckIrreducible(); err != nil {
		t.Fatal(err)
	}
}

func TestTAGExpLiteralVariantLarger(t *testing.T) {
	m := NewTAGExp(5, 10, 42, 6, 10, 10)
	m.LiteralFigure3 = true
	c := m.Build()
	if c.NumStates() <= 4331 {
		t.Fatalf("literal variant should enlarge the space, got %d", c.NumStates())
	}
	if err := c.CheckIrreducible(); err != nil {
		t.Fatal(err)
	}
}

func TestTAGExpFlowConservation(t *testing.T) {
	for _, tc := range []struct {
		lambda, tr float64
	}{{5, 42}, {11, 42}, {5, 6}, {9, 60}} {
		m := NewTAGExp(tc.lambda, 10, tc.tr, 6, 10, 10)
		r, err := m.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		close(t, "conservation", r.Throughput+r.Loss, tc.lambda, 1e-8)
		// Timeout flow: jobs entering node 2 leave via service2 or are
		// part of the standing queue; in steady state X2 = timeout rate.
		close(t, "node2 balance", r.X2, r.TimeoutRate, 1e-8)
		if r.W <= 0 || math.IsInf(r.W, 0) {
			t.Fatalf("W = %v", r.W)
		}
	}
}

func TestTAGExpSlowTimeoutDegeneratesToMM1K(t *testing.T) {
	// T small: the timeout essentially never fires before service
	// (P ~ (t/(t+mu))^n ~ 1e-12), so node 1 is M/M/1/K1 and node 2
	// stays empty. T is kept moderate so the chain stays well
	// conditioned for the iterative solver.
	m := NewTAGExp(5, 10, 0.1, 6, 10, 10)
	r, err := m.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	want := queueing.NewMM1K(5, 10, 10)
	close(t, "L1", r.L1, want.MeanQueueLength(), 1e-4)
	close(t, "X1", r.X1, want.Throughput(), 1e-4)
	if r.L2 > 1e-4 {
		t.Fatalf("node 2 should be idle, L2 = %v", r.L2)
	}
}

func TestTAGExpFastTimeoutPushesAllToNode2(t *testing.T) {
	// T huge: everything times out at once; node 1 serves almost
	// nothing.
	m := NewTAGExp(5, 10, 1e5, 6, 10, 10)
	r, err := m.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if r.X1 > 0.05*r.Throughput {
		t.Fatalf("node 1 should complete almost nothing: X1=%v X=%v", r.X1, r.Throughput)
	}
	if r.X2 <= 0 {
		t.Fatal("node 2 must carry the load")
	}
}

func TestTAGExpInteriorOptimum(t *testing.T) {
	// The paper's Figure 6 shape: L(t) has an interior minimum in the
	// timeout rate. Check L at a mid rate beats both extremes.
	lcurve := func(tr float64) float64 {
		r, err := NewTAGExp(5, 10, tr, 6, 10, 10).Analyze()
		if err != nil {
			t.Fatal(err)
		}
		return r.L
	}
	lo, mid, hi := lcurve(1), lcurve(51), lcurve(600)
	if !(mid < lo && mid < hi) {
		t.Fatalf("no interior optimum: L(1)=%v L(51)=%v L(600)=%v", lo, mid, hi)
	}
}

func TestTAGExpPEPACrossValidation(t *testing.T) {
	crossValidate := func(t *testing.T, m TAGExp) {
		t.Helper()
		direct := m.Build()
		r, err := m.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		pm, err := parsePEPA(m.PEPASource())
		if err != nil {
			t.Fatalf("parse generated PEPA: %v", err)
		}
		ss, err := derivePEPA(pm)
		if err != nil {
			t.Fatalf("derive generated PEPA: %v", err)
		}
		if ss.Chain.NumStates() != direct.NumStates() {
			t.Fatalf("states: pepa %d direct %d", ss.Chain.NumStates(), direct.NumStates())
		}
		pi, err := ss.Chain.SteadyState()
		if err != nil {
			t.Fatal(err)
		}
		// Queue lengths from leaf derivative names: leaf 1 is QA*, leaf 3 QB*/QBS*.
		var l1, l2 float64
		for s := 0; s < ss.Chain.NumStates(); s++ {
			var qa, qb int
			if _, err := sscanLeaf(ss.LeafDerivative(s, 1), "QA", &qa); err != nil {
				t.Fatalf("leaf decode %q: %v", ss.LeafDerivative(s, 1), err)
			}
			qbLbl := ss.LeafDerivative(s, 3)
			if _, err := sscanLeaf(qbLbl, "QBS", &qb); err != nil {
				if _, err := sscanLeaf(qbLbl, "QB", &qb); err != nil {
					t.Fatalf("leaf decode %q: %v", qbLbl, err)
				}
			}
			l1 += pi[s] * float64(qa)
			l2 += pi[s] * float64(qb)
		}
		close(t, "L1 direct vs pepa", l1, r.L1, 1e-8)
		close(t, "L2 direct vs pepa", l2, r.L2, 1e-8)
		x1 := ss.Chain.ActionThroughput(pi, "service1")
		x2 := ss.Chain.ActionThroughput(pi, "service2")
		close(t, "X1 direct vs pepa", x1, r.X1, 1e-8)
		close(t, "X2 direct vs pepa", x2, r.X2, 1e-8)
	}
	small := NewTAGExp(5, 10, 12, 2, 3, 3)
	t.Run("calibrated", func(t *testing.T) { crossValidate(t, small) })
	lit := small
	lit.LiteralFigure3 = true
	t.Run("literal", func(t *testing.T) { crossValidate(t, lit) })
	t.Run("paper-size", func(t *testing.T) {
		if testing.Short() {
			t.Skip("large model")
		}
		crossValidate(t, NewTAGExp(5, 10, 42, 6, 10, 10))
	})
}

func TestTAGH2DegeneratesToExponential(t *testing.T) {
	// H2 with alpha = 1 is exactly the exponential model.
	h := dist.NewH2(1, 10, 3) // branch 2 unreachable
	mh := NewTAGH2(5, h, 42, 6, 8, 8)
	me := NewTAGExp(5, 10, 42, 6, 8, 8)
	rh, err := mh.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	re, err := me.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	close(t, "L", rh.L, re.L, 1e-9)
	close(t, "W", rh.W, re.W, 1e-9)
	close(t, "X", rh.Throughput, re.Throughput, 1e-9)
	if rh.States != re.States {
		t.Fatalf("state counts differ: %d vs %d", rh.States, re.States)
	}
}

func TestTAGH2FlowConservationAndAlphaPrime(t *testing.T) {
	h := dist.H2ForTAG(0.1, 0.99, 100)
	m := NewTAGH2(11, h, 42, 6, 10, 10)
	if ap := m.AlphaPrime(); ap >= 0.99 {
		t.Fatalf("alpha' %v should be < alpha", ap)
	}
	r, err := m.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	close(t, "conservation", r.Throughput+r.Loss, 11, 1e-7)
	close(t, "node2 balance", r.X2, r.TimeoutRate, 1e-7)
}

func TestRandomAllocMatchesMM1KClosedForm(t *testing.T) {
	m := NewRandomTwoNode(10, dist.NewExponential(10), 10)
	r, err := m.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	single := queueing.NewMM1K(5, 10, 10)
	close(t, "L", r.L, 2*single.MeanQueueLength(), 1e-9)
	close(t, "X", r.Throughput, 2*single.Throughput(), 1e-9)
	close(t, "W", r.W, single.ResponseTime(), 1e-9)
	close(t, "conservation", r.Throughput+r.Loss, 10, 1e-9)
}

func TestRandomAllocWeightsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := RandomAlloc{Lambda: 1, Weights: []float64{0.5, 0.4}, Service: dist.NewExponential(1), K: 2}
	_, _ = m.Analyze()
}

func TestShortestQueueExpSymmetricAndConserving(t *testing.T) {
	m := NewShortestQueue(10, dist.NewExponential(10), 10)
	r, err := m.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	close(t, "symmetry", r.L1, r.L2, 1e-9)
	close(t, "conservation", r.Throughput+r.Loss, 10, 1e-9)
}

func TestShortestQueueBeatsRandomForExponential(t *testing.T) {
	// JSQ is the optimal policy for exponential demands; it must beat
	// random allocation on response time at every load we test.
	for _, lambda := range []float64{5, 9, 11, 15} {
		sq, err := NewShortestQueue(lambda, dist.NewExponential(10), 10).Analyze()
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := NewRandomTwoNode(lambda, dist.NewExponential(10), 10).Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if sq.W >= rnd.W {
			t.Fatalf("lambda=%v: JSQ W %v should beat random W %v", lambda, sq.W, rnd.W)
		}
	}
}

func TestShortestQueueH2StateCount(t *testing.T) {
	h := dist.H2ForTAG(0.1, 0.9, 10)
	m := NewShortestQueue(11, h, 10)
	c := m.Build()
	// Per queue: idle + 2 types x 10 levels = 21; joint 441 minus
	// unreachable type combinations.
	if c.NumStates() > 441 || c.NumStates() < 100 {
		t.Fatalf("suspicious state count %d", c.NumStates())
	}
	if err := c.CheckIrreducible(); err != nil {
		t.Fatal(err)
	}
}

func TestShortestQueueH2ReducesToExpWhenDegenerate(t *testing.T) {
	h := dist.NewH2(1, 10, 2)
	sqH2, err := NewShortestQueue(8, h, 6).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sqExp, err := NewShortestQueue(8, dist.NewExponential(10), 6).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	close(t, "W", sqH2.W, sqExp.W, 1e-9)
	close(t, "L", sqH2.L, sqExp.L, 1e-9)
}

func TestMultiNodeTwoNodesMatchesTAGExp(t *testing.T) {
	// The M = 2 multi-node model must coincide with the calibrated
	// Figure 3 model.
	lambda, mu, tr := 5.0, 10.0, 20.0
	n, k := 3, 5
	mm := NewTAGMultiNode(lambda, mu, tr, n, []int{k, k})
	rm, err := mm.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	me := NewTAGExp(lambda, mu, tr, n, k, k)
	re, err := me.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if rm.States != re.States {
		t.Fatalf("state counts differ: multi %d tagexp %d", rm.States, re.States)
	}
	close(t, "L", rm.LTotal, re.L, 1e-8)
	close(t, "X", rm.Throughput, re.Throughput, 1e-8)
	close(t, "W", rm.W, re.W, 1e-8)
}

func TestMultiNodeThreeNodes(t *testing.T) {
	m := NewTAGMultiNode(5, 10, 20, 2, []int{4, 4, 4})
	r, err := m.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	close(t, "conservation", r.Throughput+r.Loss, 5, 1e-7)
	if len(r.L) != 3 {
		t.Fatalf("L per node: %v", r.L)
	}
	// Load should thin out along the chain.
	if !(r.L[0] > 0 && r.L[1] >= 0 && r.L[2] >= 0) {
		t.Fatalf("queue lengths %v", r.L)
	}
}

func TestMeasuresFinish(t *testing.T) {
	m := Measures{L1: 1, L2: 2, X1: 3, X2: 3, LossArrival: 0.5, LossTransfer: 0.5}
	m.finish()
	if m.L != 3 || m.Throughput != 6 || m.Loss != 1 {
		t.Fatalf("%+v", m)
	}
	close(t, "W", m.W, 0.5, 1e-14)
}

func TestMultiNodeRejectsTooManyNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic for more than maxNodes nodes")
		}
	}()
	NewTAGMultiNode(5, 10, 20, 1, make([]int, maxNodes+1))
}
