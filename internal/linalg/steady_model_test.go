package linalg_test

import (
	"fmt"
	"math"
	"testing"

	"pepatags/internal/core"
	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
	"pepatags/internal/linalg"
	"pepatags/internal/numeric"
	"pepatags/internal/obsv"
)

// TestGaussSeidelKernelMatchesOracleTAGH2 runs the differential check
// of steady_test.go on a small H2 TAG chain, the shape of the paper's
// Figure 12 at reduced buffer sizes.
func TestGaussSeidelKernelMatchesOracleTAGH2(t *testing.T) {
	m := core.NewTAGH2(11, dist.H2ForTAG(0.1, 0.95, 10), 40, 6, 4, 4)
	q := m.Build().Generator()
	linalg.CheckGaussSeidelMatchesOracle(t, "tagh2", q, linalg.Options{})
	linalg.CheckGaussSeidelMatchesOracle(t, "tagh2 omega=1.1", q, linalg.Options{Omega: 1.1})
}

// mm1kChain builds the birth-death chain of an M/M/1/K queue and its
// closed-form stationary distribution.
func mm1kChain(lambda, mu float64, k int) (*ctmc.Chain, []float64) {
	b := ctmc.NewBuilder()
	want := make([]float64, k+1)
	for i := range want {
		b.State(fmt.Sprintf("Q%d", i))
		want[i] = math.Pow(lambda/mu, float64(i))
	}
	for i := 0; i < k; i++ {
		b.Transition(i, i+1, lambda, "arrival")
		b.Transition(i+1, i, mu, "service")
	}
	numeric.Normalize(want)
	return b.Build(), want
}

// TestSteadyStateAutoAndResidual solves a small chain through the
// chain's solve entry point: the GTH stage, which fills no iterative
// stats.
func TestSteadyStateAutoAndResidual(t *testing.T) {
	c, want := mm1kChain(5, 10, 10)
	var st obsv.SolveStats
	pi, err := c.SteadyStateAuto(linalg.Options{Stats: &st})
	if err != nil {
		t.Fatalf("SteadyStateAuto: %v", err)
	}
	if r := linalg.Residual(c.Generator(), pi); r > 1e-9 {
		t.Fatalf("residual %g too large", r)
	}
	if !numeric.AlmostEqual(numeric.KahanSum(pi), 1, 1e-12) {
		t.Fatal("pi does not sum to 1")
	}
	if d := numeric.MaxAbsDiff(pi, want); d > 1e-12 {
		t.Fatalf("diff from closed form %g", d)
	}
	if st.Solver != "" {
		t.Fatalf("GTH stage must not fill iterative stats, got %q", st.Solver)
	}
	if _, err := ctmc.NewChain(nil, nil).SteadyStateAuto(linalg.Options{}); err == nil {
		t.Fatal("empty chain must error")
	}
}

// TestSteadyStateLargerRandomWalk solves a 2000-state birth-death
// chain, above the dense cutoff, so the iterative stage runs and fills
// the attached stats; SteadyState is the same entry with default
// options.
func TestSteadyStateLargerRandomWalk(t *testing.T) {
	c, want := mm1kChain(3, 4, 1999)
	var st obsv.SolveStats
	pi, err := c.SteadyStateAuto(linalg.Options{Stats: &st})
	if err != nil {
		t.Fatalf("SteadyStateAuto: %v", err)
	}
	if d := numeric.MaxAbsDiff(pi, want); d > 1e-7 {
		t.Fatalf("diff %g", d)
	}
	if st.Solver == "" || !st.Converged {
		t.Fatalf("iterative stage must fill stats: %+v", st)
	}
	plain, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi {
		if math.Float64bits(pi[i]) != math.Float64bits(plain[i]) {
			t.Fatalf("SteadyState and SteadyStateAuto differ at %d: %v vs %v", i, plain[i], pi[i])
		}
	}
}
