package linalg

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"pepatags/internal/numeric"
	"pepatags/internal/obsv"
)

// mm1kGenerator builds the birth-death generator of an M/M/1/K queue.
func mm1kGenerator(lambda, mu float64, k int) *COO {
	n := k + 1
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		var out float64
		if i < k {
			c.Add(i, i+1, lambda)
			out += lambda
		}
		if i > 0 {
			c.Add(i, i-1, mu)
			out += mu
		}
		c.Add(i, i, -out)
	}
	return c
}

// mm1kExact returns the closed-form stationary distribution.
func mm1kExact(lambda, mu float64, k int) []float64 {
	rho := lambda / mu
	pi := make([]float64, k+1)
	for i := range pi {
		pi[i] = math.Pow(rho, float64(i))
	}
	numeric.Normalize(pi)
	return pi
}

func TestGTHAgainstMM1KClosedForm(t *testing.T) {
	for _, tc := range []struct {
		lambda, mu float64
		k          int
	}{
		{5, 10, 10}, {9, 10, 10}, {1, 10, 4}, {10, 10, 7}, {20, 10, 5},
	} {
		q := mm1kGenerator(tc.lambda, tc.mu, tc.k).ToCSR().ToDense()
		pi, err := SteadyStateGTH(q)
		if err != nil {
			t.Fatalf("GTH(%v): %v", tc, err)
		}
		want := mm1kExact(tc.lambda, tc.mu, tc.k)
		if d := numeric.MaxAbsDiff(pi, want); d > 1e-12 {
			t.Fatalf("GTH(%v): diff %g\n got %v\nwant %v", tc, d, pi, want)
		}
	}
}

func TestGTHTwoState(t *testing.T) {
	// Simple 2-state chain: rates a=2 (0->1), b=3 (1->0): pi = (b, a)/(a+b).
	q := DenseFromRows([][]float64{{-2, 2}, {3, -3}})
	pi, err := SteadyStateGTH(q)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(pi[0], 0.6, 1e-14) || !numeric.AlmostEqual(pi[1], 0.4, 1e-14) {
		t.Fatalf("pi=%v", pi)
	}
}

func TestGTHSingleState(t *testing.T) {
	q := DenseFromRows([][]float64{{0}})
	pi, err := SteadyStateGTH(q)
	if err != nil || pi[0] != 1 {
		t.Fatalf("pi=%v err=%v", pi, err)
	}
}

func TestGTHReducibleChainErrors(t *testing.T) {
	// State 1 absorbing relative to lower states but unreachable back.
	q := DenseFromRows([][]float64{{-1, 1}, {0, 0}})
	if _, err := SteadyStateGTH(q); err == nil {
		t.Fatal("expected error for reducible chain")
	}
}

func TestSolversAgree(t *testing.T) {
	coo := mm1kGenerator(7, 10, 12)
	csr := coo.ToCSR()
	dense := csr.ToDense()
	want := mm1kExact(7, 10, 12)

	gth, err := SteadyStateGTH(dense)
	if err != nil {
		t.Fatalf("GTH: %v", err)
	}
	lu, err := SteadyStateLU(dense)
	if err != nil {
		t.Fatalf("LU: %v", err)
	}
	pow, err := SteadyStatePower(csr, Options{})
	if err != nil {
		t.Fatalf("power: %v", err)
	}
	gs, err := SteadyStateGaussSeidel(csr, Options{})
	if err != nil {
		t.Fatalf("GS: %v", err)
	}
	sor, err := SteadyStateGaussSeidel(csr, Options{Omega: 1.2})
	if err != nil {
		t.Fatalf("SOR: %v", err)
	}
	for name, pi := range map[string][]float64{
		"gth": gth, "lu": lu, "power": pow, "gs": gs, "sor": sor,
	} {
		if d := numeric.MaxAbsDiff(pi, want); d > 1e-8 {
			t.Errorf("%s: diff from closed form %g", name, d)
		}
	}
}

// TestGaussSeidelRejectsNonFinite checks the two ways rates near the
// float64 range break a Gauss-Seidel solve: a diagonal whose row sum
// overflows, and a finite generator whose iterate overflows (a huge
// inflow into a state with a tiny outflow), where the NaN that follows
// never raises the successive-iterate difference. Neither may be
// reported as converged.
func TestGaussSeidelRejectsNonFinite(t *testing.T) {
	tiny := NewCOO(2, 2)
	tiny.Add(0, 1, 1e-300)
	tiny.Add(0, 0, -1e-300)
	tiny.Add(1, 0, 1e308)
	tiny.Add(1, 1, -1e308)
	for name, q := range map[string]*CSR{
		"overflowing diagonal": mm1kGenerator(1e308, 1e308, 8).ToCSR(),
		"overflowing iterate":  tiny.ToCSR(),
	} {
		var st obsv.SolveStats
		if pi, err := SteadyStateGaussSeidel(q, Options{Stats: &st}); err == nil {
			t.Errorf("%s: returned %v with a nil error", name, pi)
		}
		if st.Converged {
			t.Errorf("%s: reported as converged", name)
		}
	}
}

func TestUniformizationConstant(t *testing.T) {
	csr := mm1kGenerator(5, 10, 3).ToCSR()
	lam := UniformizationConstant(csr)
	if lam < 15 { // max outflow is lambda+mu = 15
		t.Fatalf("Lambda %g < 15", lam)
	}
}

func TestStationarityProperty(t *testing.T) {
	// Property: for random birth-death chains the GTH solution has a
	// tiny residual and sums to one.
	rng := uint64(99)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return 0.1 + 10*float64(rng>>33)/float64(1<<31)
	}
	for trial := 0; trial < 40; trial++ {
		k := 2 + trial%10
		n := k + 1
		c := NewCOO(n, n)
		for i := 0; i < n; i++ {
			var out float64
			if i < k {
				r := next()
				c.Add(i, i+1, r)
				out += r
			}
			if i > 0 {
				r := next()
				c.Add(i, i-1, r)
				out += r
			}
			c.Add(i, i, -out)
		}
		csr := c.ToCSR()
		pi, err := SteadyStateGTH(csr.ToDense())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r := Residual(csr, pi); r > 1e-9 {
			t.Fatalf("trial %d: residual %g", trial, r)
		}
		if !numeric.AlmostEqual(numeric.KahanSum(pi), 1, 1e-12) {
			t.Fatalf("trial %d: sum != 1", trial)
		}
	}
}

func TestSolveSparseGaussSeidelMatchesLU(t *testing.T) {
	// Diagonally dominant random sparse system.
	rng := uint64(7)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>33)/float64(1<<31) - 0.5
	}
	n := 60
	coo := NewCOO(n, n)
	dense := NewDense(n, n)
	for i := 0; i < n; i++ {
		var rowAbs float64
		for j := 0; j < n; j++ {
			if i != j && next() > 0.3 {
				v := next()
				coo.Add(i, j, v)
				dense.Set(i, j, v)
				rowAbs += math.Abs(v)
			}
		}
		d := rowAbs + 1
		coo.Add(i, i, d)
		dense.Set(i, i, d)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = next()
	}
	want, err := LUSolve(dense, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveSparseGaussSeidel(coo.ToCSR(), b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := numeric.MaxAbsDiff(got, want); d > 1e-8 {
		t.Fatalf("diff %g", d)
	}
}

func TestSolveSparseGaussSeidelValidation(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 1, 1) // zero diagonal at row 0
	coo.Add(1, 1, 1)
	if _, err := SolveSparseGaussSeidel(coo.ToCSR(), []float64{1, 1}, Options{}); err == nil {
		t.Fatal("zero diagonal must fail")
	}
	coo2 := NewCOO(2, 2)
	coo2.Add(0, 0, 1)
	coo2.Add(1, 1, 1)
	if _, err := SolveSparseGaussSeidel(coo2.ToCSR(), []float64{1}, Options{}); err == nil {
		t.Fatal("bad rhs length must fail")
	}
}

// TestResidualTraceEndsAtFinalDiff pins the fix for traces that
// stopped one sample short: whatever TraceEvery is, the last trace
// entry must be the final (converged) difference.
func TestResidualTraceEndsAtFinalDiff(t *testing.T) {
	q := mm1kGenerator(5, 10, 20).ToCSR()
	for _, every := range []int{1, 3, 7, 1000000} {
		var st obsv.SolveStats
		if _, err := SteadyStateGaussSeidel(q, Options{Stats: &st, TraceEvery: every}); err != nil {
			t.Fatalf("TraceEvery=%d: %v", every, err)
		}
		if len(st.ResidualTrace) == 0 {
			t.Fatalf("TraceEvery=%d: empty trace", every)
		}
		last := st.ResidualTrace[len(st.ResidualTrace)-1]
		if last != st.FinalDiff {
			t.Fatalf("TraceEvery=%d: trace ends at %g, final diff %g (iterations %d)",
				every, last, st.FinalDiff, st.Iterations)
		}
		if last >= DefaultEps {
			t.Fatalf("TraceEvery=%d: trace does not end converged: %g", every, last)
		}
		// No duplicate tail when the iteration count lands on a sample.
		if st.Iterations%every == 0 && len(st.ResidualTrace) >= 2 &&
			st.ResidualTrace[len(st.ResidualTrace)-2] == last {
			t.Fatalf("TraceEvery=%d: final diff appended twice", every)
		}
	}
}

// TestSolveMetrics checks the per-solve registry aggregates.
func TestSolveMetrics(t *testing.T) {
	q := mm1kGenerator(5, 10, 20).ToCSR()
	reg := obsv.NewRegistry()
	var st obsv.SolveStats
	for _, solve := range []func() error{
		func() error { _, err := SteadyStateGaussSeidel(q, Options{Stats: &st, Metrics: reg}); return err },
		func() error { _, err := SteadyStatePower(q, Options{Metrics: reg}); return err },
		func() error { _, err := SteadyStateJacobi(q, Options{Metrics: reg, Workers: 2}); return err },
	} {
		if err := solve(); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("solve.count").Value(); got != 3 {
		t.Fatalf("solve.count = %d, want 3", got)
	}
	if iters := reg.Counter("solve.iterations").Value(); iters < int64(st.Iterations) {
		t.Fatalf("solve.iterations = %d, below the Gauss-Seidel count %d", iters, st.Iterations)
	}
	if n := reg.Histogram("solve.seconds").Count(); n != 3 {
		t.Fatalf("solve.seconds count = %d, want 3", n)
	}
}

// gaussSeidelOracle is the unpadded Gauss-Seidel sweep over q's
// transpose that the padded gsOperator kernel replaced. It is kept as
// the differential oracle: the production solver must reproduce its
// iterates bit for bit. It returns pi and the sweep count.
func gaussSeidelOracle(q *CSR, opts Options) ([]float64, int, error) {
	opts = opts.withDefaults()
	n := q.Rows
	qt := q.Transpose()
	diag := make([]float64, n)
	for j := 0; j < n; j++ {
		for k := qt.RowPtr[j]; k < qt.RowPtr[j+1]; k++ {
			if qt.ColIdx[k] == j {
				diag[j] = qt.Val[k]
			}
		}
		if diag[j] >= 0 {
			return nil, 0, ErrNotConverged
		}
	}
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	w := opts.Omega
	for iter := 1; iter <= opts.MaxIter; iter++ {
		var diff float64
		for j := 0; j < n; j++ {
			var s float64
			for k := qt.RowPtr[j]; k < qt.RowPtr[j+1]; k++ {
				if i := qt.ColIdx[k]; i != j {
					s += pi[i] * qt.Val[k]
				}
			}
			next := (1-w)*pi[j] + w*s/(-diag[j])
			if next < 0 {
				next = 0
			}
			if d := math.Abs(next - pi[j]); d > diff {
				diff = d
			}
			pi[j] = next
		}
		if iter%16 == 0 {
			numeric.Normalize(pi)
		}
		if diff < opts.Eps {
			numeric.Normalize(pi)
			return pi, iter, nil
		}
	}
	return nil, opts.MaxIter, ErrNotConverged
}

// CheckGaussSeidelMatchesOracle fails t unless SteadyStateGaussSeidel
// returns the oracle's pi with equal Float64bits in every component,
// after the same number of sweeps. It is exported to the external
// test package, which builds model chains from internal/core.
func CheckGaussSeidelMatchesOracle(t *testing.T, name string, q *CSR, opts Options) {
	t.Helper()
	want, wantIters, err := gaussSeidelOracle(q, opts)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	var st obsv.SolveStats
	opts.Stats = &st
	got, err := SteadyStateGaussSeidel(q, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if st.Iterations != wantIters {
		t.Fatalf("%s: %d sweeps, oracle %d", name, st.Iterations, wantIters)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: pi[%d] = %v (%#x), oracle %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// randomInflowChain returns an irreducible generator on n states whose
// column j holds exactly inflows[j] off-diagonal entries: the ring
// edge from j-1 (which makes the chain irreducible) plus distinct
// random sources.
func randomInflowChain(n int, inflows func(j int) int, next func() float64) *CSR {
	c := NewCOO(n, n)
	out := make([]float64, n)
	add := func(i, j int, r float64) {
		c.Add(i, j, r)
		out[i] += r
	}
	for j := 0; j < n; j++ {
		src := (j + n - 1) % n
		add(src, j, 0.1+10*next())
		used := map[int]bool{j: true, src: true}
		for len(used) < inflows(j)+1 {
			i := int(next() * float64(n))
			if !used[i] {
				used[i] = true
				add(i, j, 0.1+10*next())
			}
		}
	}
	for i := 0; i < n; i++ {
		c.Add(i, i, -out[i])
	}
	return c.ToCSR()
}

// TestGaussSeidelKernelMatchesOracle pins the padded four-wide kernel
// to the unpadded oracle on chains whose columns hold 1 to 9 inflows,
// exact multiples of the padding width included, for plain
// Gauss-Seidel and for SOR with w = 1.1.
func TestGaussSeidelKernelMatchesOracle(t *testing.T) {
	rng := uint64(2024)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11) / float64(1<<53)
	}
	for _, n := range []int{10, 37, 400} {
		for _, fixed := range []int{0, 1, 4, 8, 9} {
			inflows := func(j int) int {
				if fixed > 0 {
					return fixed
				}
				return 1 + int(next()*9) // 1..9
			}
			q := randomInflowChain(n, inflows, next)
			for _, omega := range []float64{1, 1.1} {
				name := fmt.Sprintf("n=%d inflows=%d omega=%g", n, fixed, omega)
				CheckGaussSeidelMatchesOracle(t, name, q, Options{Omega: omega})
			}
		}
	}
	CheckGaussSeidelMatchesOracle(t, "mm1k omega=1.1", mm1kGenerator(7, 10, 500).ToCSR(), Options{Omega: 1.1})
}

// TestGSOperatorPadding checks the operator layout: rows padded to a
// multiple of 4 with (0, +0.0), inflows in ascending source order, and
// the negated diagonal.
func TestGSOperatorPadding(t *testing.T) {
	q := mm1kGenerator(2, 3, 5).ToCSR()
	op, err := newGSOperator(q)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < q.Rows; j++ {
		lo, hi := op.rowPtr[j], op.rowPtr[j+1]
		if (hi-lo)%4 != 0 {
			t.Fatalf("row %d has length %d", j, hi-lo)
		}
		var srcs []int
		for k := lo; k < hi; k++ {
			if math.Float64bits(op.val[k]) == 0 {
				if op.col[k] != 0 {
					t.Fatalf("row %d: padding points at column %d", j, op.col[k])
				}
				continue
			}
			srcs = append(srcs, int(op.col[k]))
			if want := q.At(int(op.col[k]), j); math.Float64bits(op.val[k]) != math.Float64bits(want) {
				t.Fatalf("row %d: entry from %d is %v, want %v", j, op.col[k], op.val[k], want)
			}
		}
		if !sort.IntsAreSorted(srcs) {
			t.Fatalf("row %d: sources %v not ascending", j, srcs)
		}
		if math.Float64bits(op.negDiag[j]) != math.Float64bits(-q.At(j, j)) {
			t.Fatalf("row %d: negDiag %v, diagonal %v", j, op.negDiag[j], q.At(j, j))
		}
	}
}
