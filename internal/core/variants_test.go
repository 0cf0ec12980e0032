package core

import (
	"math"
	"strings"
	"testing"

	"pepatags/internal/dist"
)

// TestTAGHeteroHomogeneousMatchesTAGExp pins that a homogeneous
// TAGHetero is the TAGExp configuration of the TAG rule: the same
// chain (labels, transition order and rate bits) and the same measures.
func TestTAGHeteroHomogeneousMatchesTAGExp(t *testing.T) {
	for _, p := range []struct {
		lambda, mu, t float64
		n, k1, k2     int
	}{{5, 10, 42, 6, 10, 10}, {7, 10, 20, 2, 4, 3}} {
		h := NewTAGHetero(p.lambda, p.mu, p.mu, p.t, p.t, p.n, p.k1, p.k2)
		e := NewTAGExp(p.lambda, p.mu, p.t, p.n, p.k1, p.k2)
		if got, want := chainFingerprint(h.Build()), chainFingerprint(e.Build()); got != want {
			t.Fatalf("%+v: chain fingerprint %s, want %s", p, got, want)
		}
		hetero, err := h.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		base, err := e.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		close(t, "L", hetero.L, base.L, 1e-10)
		close(t, "W", hetero.W, base.W, 1e-10)
		close(t, "X", hetero.Throughput, base.Throughput, 1e-10)
		if hetero.States != base.States {
			t.Fatalf("states %d vs %d", hetero.States, base.States)
		}
	}
}

// TestTAGConstructorsRejectInvalidParameters asserts that every TAG
// constructor validates through the shared configuration: each panics
// at construction, with a core: message, on a non-positive rate, a
// short-job probability outside [0, 1], N < 1 or K < 1. The routing
// baselines validate through theirs.
func TestTAGConstructorsRejectInvalidParameters(t *testing.T) {
	h2 := dist.H2ForTAG(0.1, 0.9, 10)
	arr := BurstyMMPP2(6, 1.5, 0.5)
	nanAlpha := dist.HyperExp{Alpha: []float64{math.NaN(), 0.5}, Mu: []float64{10, 1}}
	cases := []struct {
		name string
		make func()
	}{
		{"exp lambda", func() { NewTAGExp(0, 10, 12, 3, 4, 4) }},
		{"exp mu", func() { NewTAGExp(5, -1, 12, 3, 4, 4) }},
		{"exp t", func() { NewTAGExp(5, 10, 0, 3, 4, 4) }},
		{"exp n", func() { NewTAGExp(5, 10, 12, 0, 4, 4) }},
		{"exp k1", func() { NewTAGExp(5, 10, 12, 3, 0, 4) }},
		{"exp k2", func() { NewTAGExp(5, 10, 12, 3, 4, 0) }},
		{"h2 lambda", func() { NewTAGH2(-5, h2, 12, 3, 4, 4) }},
		{"h2 mu", func() { NewTAGH2(5, dist.HyperExp{Alpha: []float64{0.5, 0.5}, Mu: []float64{10, 0}}, 12, 3, 4, 4) }},
		{"h2 alpha", func() { NewTAGH2(5, dist.HyperExp{Alpha: []float64{1.5, -0.5}, Mu: []float64{10, 1}}, 12, 3, 4, 4) }},
		{"h2 alpha NaN", func() { NewTAGH2(5, nanAlpha, 12, 3, 4, 4) }},
		{"h2 branches", func() { NewTAGH2(5, dist.HyperExp{Alpha: []float64{1}, Mu: []float64{10}}, 12, 3, 4, 4) }},
		{"h2 t", func() { NewTAGH2(5, h2, 0, 3, 4, 4) }},
		{"h2 n", func() { NewTAGH2(5, h2, 12, 0, 4, 4) }},
		{"h2 k", func() { NewTAGH2(5, h2, 12, 3, 4, 0) }},
		{"exp-mmpp rate1", func() { NewTAGExpMMPP(MMPP2{Rate1: 0, Rate2: 1, Switch1: 1, Switch2: 1}, 10, 12, 3, 4, 4) }},
		{"exp-mmpp rate2", func() { NewTAGExpMMPP(MMPP2{Rate1: 1, Rate2: -1, Switch1: 1, Switch2: 1}, 10, 12, 3, 4, 4) }},
		{"exp-mmpp switch", func() { NewTAGExpMMPP(MMPP2{Rate1: 1, Rate2: 1, Switch1: 0, Switch2: 1}, 10, 12, 3, 4, 4) }},
		{"exp-mmpp mu", func() { NewTAGExpMMPP(arr, 0, 12, 3, 4, 4) }},
		{"exp-mmpp t", func() { NewTAGExpMMPP(arr, 10, -12, 3, 4, 4) }},
		{"exp-mmpp n", func() { NewTAGExpMMPP(arr, 10, 12, 0, 4, 4) }},
		{"exp-mmpp k", func() { NewTAGExpMMPP(arr, 10, 12, 3, 0, 4) }},
		{"h2-mmpp mu", func() {
			NewTAGH2MMPP(arr, dist.HyperExp{Alpha: []float64{0.5, 0.5}, Mu: []float64{10, 0}}, 12, 3, 4, 4)
		}},
		{"h2-mmpp alpha", func() {
			NewTAGH2MMPP(arr, dist.HyperExp{Alpha: []float64{-0.1, 1.1}, Mu: []float64{10, 1}}, 12, 3, 4, 4)
		}},
		{"h2-mmpp switch", func() { NewTAGH2MMPP(MMPP2{Rate1: 1, Switch1: 1}, h2, 12, 3, 4, 4) }},
		{"h2-mmpp t", func() { NewTAGH2MMPP(arr, h2, 0, 3, 4, 4) }},
		{"h2-mmpp n", func() { NewTAGH2MMPP(arr, h2, 12, 0, 4, 4) }},
		{"h2-mmpp k", func() { NewTAGH2MMPP(arr, h2, 12, 3, 4, 0) }},
		{"hetero lambda", func() { NewTAGHetero(0, 10, 12, 20, 25, 2, 4, 3) }},
		{"hetero mu1", func() { NewTAGHetero(7, 0, 12, 20, 25, 2, 4, 3) }},
		{"hetero mu2", func() { NewTAGHetero(7, 10, 0, 20, 25, 2, 4, 3) }},
		{"hetero t1", func() { NewTAGHetero(7, 10, 12, 0, 25, 2, 4, 3) }},
		{"hetero t2", func() { NewTAGHetero(7, 10, 12, 20, math.NaN(), 2, 4, 3) }},
		{"hetero n", func() { NewTAGHetero(7, 10, 12, 20, 25, 0, 4, 3) }},
		{"hetero k1", func() { NewTAGHetero(7, 10, 12, 20, 25, 2, 0, 3) }},
		{"jsq lambda", func() { NewShortestQueue(0, dist.NewExponential(10), 5) }},
		{"jsq k", func() { NewShortestQueue(9, h2, 0) }},
		{"jsq mu", func() { NewShortestQueue(9, dist.HyperExp{Alpha: []float64{0.5, 0.5}, Mu: []float64{10, 0}}, 5) }},
		{"roundrobin alpha", func() { NewRoundRobinTwoNode(9, dist.HyperExp{Alpha: []float64{2, -1}, Mu: []float64{10, 1}}, 5) }},
		{"roundrobin branches", func() { NewRoundRobinTwoNode(9, dist.HyperExp{Alpha: []float64{1}, Mu: []float64{10}}, 5) }},
		{"jsq-mmpp mu", func() { ShortestQueueMMPP{Arrivals: arr, Mu: 0, K: 5}.Build() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "core: ") {
					t.Fatalf("panic %q, want a core: message", msg)
				}
			}()
			tc.make()
		})
	}
}

func TestTAGHeteroFasterSecondNodeHelps(t *testing.T) {
	slow, err := NewTAGHetero(9, 10, 10, 42, 42, 6, 10, 10).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewTAGHetero(9, 10, 20, 42, 42, 6, 10, 10).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if fast.W >= slow.W {
		t.Fatalf("faster node 2 should reduce W: %v vs %v", fast.W, slow.W)
	}
}

func TestTAGHeteroConservation(t *testing.T) {
	m, err := NewTAGHetero(11, 12, 8, 30, 50, 4, 8, 8).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	close(t, "conservation", m.Throughput+m.Loss, 11, 1e-8)
	close(t, "node2 balance", m.X2, m.TimeoutRate, 1e-8)
}

func TestServeAloneToCompletionReducesTimeouts(t *testing.T) {
	base := NewTAGHetero(5, 10, 10, 42, 42, 6, 10, 10)
	withOpt := base
	withOpt.ServeAloneToCompletion = true
	rb, err := base.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ro, err := withOpt.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// Suppressing the timeout for lone jobs strictly reduces the flow
	// of killed-and-restarted work.
	if ro.TimeoutRate >= rb.TimeoutRate {
		t.Fatalf("timeout flow should fall: %v vs %v", ro.TimeoutRate, rb.TimeoutRate)
	}
	// At light load (mostly lone jobs) the variant behaves close to a
	// plain M/M/1/K and improves the response time here.
	if ro.W >= rb.W {
		t.Fatalf("serve-alone should help at light exponential load: %v vs %v", ro.W, rb.W)
	}
	close(t, "conservation", ro.Throughput+ro.Loss, 5, 1e-8)
}

func TestMMPPDegeneratesToPoisson(t *testing.T) {
	// Rate1 = Rate2: the modulation is invisible.
	arr := MMPP2{Rate1: 5, Rate2: 5, Switch1: 1, Switch2: 1}
	mm, err := NewTAGExpMMPP(arr, 10, 42, 6, 8, 8).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewTAGExp(5, 10, 42, 6, 8, 8).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	close(t, "L", mm.L, pp.L, 1e-8)
	close(t, "W", mm.W, pp.W, 1e-8)
	close(t, "X", mm.Throughput, pp.Throughput, 1e-8)
}

func TestBurstyMMPP2MeanPreserved(t *testing.T) {
	arr := BurstyMMPP2(8, 1.8, 0.5)
	close(t, "mean", arr.MeanRate(), 8, 1e-12)
}

func TestBurstyArrivalsHurtTAGMoreThanJSQ(t *testing.T) {
	// Section 7's conjecture, verified analytically: switching from
	// Poisson to an MMPP with the same mean rate degrades TAG's loss
	// and response time more than the shortest queue's.
	const mean, mu, tr = 8.0, 10.0, 42.0
	arr := BurstyMMPP2(mean, 1.9, 0.4)

	tagP, err := NewTAGExp(mean, mu, tr, 6, 10, 10).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	tagB, err := NewTAGExpMMPP(arr, mu, tr, 6, 10, 10).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sqP, err := NewShortestQueue(mean, dist.NewExponential(mu), 10).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sqB, err := (ShortestQueueMMPP{Arrivals: arr, Mu: mu, K: 10}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if tagB.W <= tagP.W {
		t.Fatalf("burstiness should raise TAG's W: %v vs %v", tagB.W, tagP.W)
	}
	if sqB.W <= sqP.W {
		t.Fatalf("burstiness should raise SQ's W: %v vs %v", sqB.W, sqP.W)
	}
	tagPenalty := tagB.W / tagP.W
	sqPenalty := sqB.W / sqP.W
	if tagPenalty <= sqPenalty {
		t.Fatalf("TAG penalty %v should exceed SQ penalty %v", tagPenalty, sqPenalty)
	}
}

func TestMMPPConservation(t *testing.T) {
	arr := BurstyMMPP2(8, 1.9, 0.4)
	m, err := NewTAGExpMMPP(arr, 10, 42, 6, 10, 10).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	close(t, "conservation", m.Throughput+m.Loss, arr.MeanRate(), 1e-7)
	s, err := (ShortestQueueMMPP{Arrivals: arr, Mu: 10, K: 10}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	close(t, "sq conservation", s.Throughput+s.Loss, arr.MeanRate(), 1e-7)
}

func TestTAGH2PEPACrossValidation(t *testing.T) {
	h := dist.H2ForTAG(0.1, 0.9, 10)
	m := NewTAGH2(5, h, 12, 2, 3, 3)
	direct := m.Build()
	r, err := m.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	pm, err := parsePEPA(m.PEPASource())
	if err != nil {
		t.Fatalf("parse generated Figure 5 PEPA: %v", err)
	}
	ss, err := derivePEPA(pm)
	if err != nil {
		t.Fatalf("derive: %v", err)
	}
	if ss.Chain.NumStates() != direct.NumStates() {
		t.Fatalf("states: pepa %d direct %d", ss.Chain.NumStates(), direct.NumStates())
	}
	pi, err := ss.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	for _, act := range []string{"service1", "service2", "timeout"} {
		got := ss.Chain.ActionThroughput(pi, act)
		var want float64
		switch act {
		case "service1":
			want = r.X1
		case "service2":
			want = r.X2
		case "timeout":
			// The PEPA text labels drops at a full node 2 as timeout
			// self-loops, so its throughput covers both outcomes.
			want = r.TimeoutRate + r.LossTransfer
		}
		close(t, act+" throughput", got, want, 1e-8)
	}
}

func TestTAGH2PEPACrossValidationPaperSize(t *testing.T) {
	if testing.Short() {
		t.Skip("9801-state model")
	}
	h := dist.H2ForTAG(0.1, 0.99, 100)
	m := NewTAGH2(11, h, 42, 6, 10, 10)
	direct := m.Build()
	pm, err := parsePEPA(m.PEPASource())
	if err != nil {
		t.Fatal(err)
	}
	ss, err := derivePEPA(pm)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Chain.NumStates() != direct.NumStates() {
		t.Fatalf("states: pepa %d direct %d", ss.Chain.NumStates(), direct.NumStates())
	}
}

func TestExpectedFillTimes(t *testing.T) {
	m := NewTAGExp(9, 10, 20, 3, 6, 6)
	n1, n2, err := m.ExpectedFillTimes()
	if err != nil {
		t.Fatal(err)
	}
	if n1 <= 0 || n2 <= 0 {
		t.Fatalf("fill times %v %v", n1, n2)
	}
	// Faster arrivals fill node 1 sooner.
	m2 := NewTAGExp(13, 10, 20, 3, 6, 6)
	f1, _, err := m2.ExpectedFillTimes()
	if err != nil {
		t.Fatal(err)
	}
	if f1 >= n1 {
		t.Fatalf("higher load should fill faster: %v vs %v", f1, n1)
	}
}

func TestShortestQueueFillTimeOrdering(t *testing.T) {
	m := NewShortestQueue(11, dist.NewExponential(10), 6)
	either, both, err := m.ExpectedFillTime()
	if err != nil {
		t.Fatal(err)
	}
	if !(0 < either && either < both) {
		t.Fatalf("either %v must precede both %v", either, both)
	}
}

func TestTAGH2MMPPDegeneratesToTAGH2(t *testing.T) {
	h := dist.H2ForTAG(0.2, 0.9, 10)
	arr := MMPP2{Rate1: 6, Rate2: 6, Switch1: 1, Switch2: 1}
	mm, err := NewTAGH2MMPP(arr, h, 24, 4, 6, 6).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewTAGH2(6, h, 24, 4, 6, 6).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	close(t, "L", mm.L, pp.L, 1e-7)
	close(t, "W", mm.W, pp.W, 1e-7)
	close(t, "X", mm.Throughput, pp.Throughput, 1e-7)
}

func TestTAGH2MMPPBurstinessPenalty(t *testing.T) {
	// Heavy tails + bursts: the combination degrades TAG beyond either
	// stressor alone (loss rises vs the Poisson H2 case).
	h := dist.H2ForTAG(0.1, 0.99, 100)
	arr := BurstyMMPP2(8, 1.9, 0.4)
	bursty, err := NewTAGH2MMPP(arr, h, 12, 6, 10, 10).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	poisson, err := NewTAGH2(8, h, 12, 6, 10, 10).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	close(t, "conservation", bursty.Throughput+bursty.Loss, arr.MeanRate(), 1e-6)
	if bursty.Loss <= poisson.Loss {
		t.Fatalf("bursts should raise loss: %v vs %v", bursty.Loss, poisson.Loss)
	}
	if bursty.W <= poisson.W {
		t.Fatalf("bursts should raise W: %v vs %v", bursty.W, poisson.W)
	}
}

func TestTAGExpMMPPPEPACrossValidation(t *testing.T) {
	arr := BurstyMMPP2(6, 1.8, 0.5)
	m := NewTAGExpMMPP(arr, 10, 16, 2, 4, 4)
	direct := m.Build()
	r, err := m.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	pm, err := parsePEPA(m.PEPASource())
	if err != nil {
		t.Fatalf("parse MMPP PEPA: %v", err)
	}
	ss, err := derivePEPA(pm)
	if err != nil {
		t.Fatalf("derive: %v", err)
	}
	// The PEPA text models full-queue drops as arrival self-loops, so
	// state counts coincide with the direct builder.
	if ss.Chain.NumStates() != direct.NumStates() {
		t.Fatalf("states: pepa %d direct %d", ss.Chain.NumStates(), direct.NumStates())
	}
	pi, err := ss.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	close(t, "service1", ss.Chain.ActionThroughput(pi, "service1"), r.X1, 1e-8)
	close(t, "service2", ss.Chain.ActionThroughput(pi, "service2"), r.X2, 1e-8)
	// The PEPA arrival action counts accepted + dropped = offered rate.
	close(t, "offered", ss.Chain.ActionThroughput(pi, "arrival"), arr.MeanRate(), 1e-8)
}
