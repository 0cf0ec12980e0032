package ctmc

import (
	"errors"
	"fmt"

	"pepatags/internal/linalg"
)

// First-passage analysis: expected time to hit a target set from each
// state, and the hitting probability before an avoid set. These back
// the paper's informal claim that "for all but the largest jobs the
// delay is bounded" — e.g. the expected time for the node-1 queue to
// fill from empty under each policy.

// denseHittingCutoff selects the solver: dense LU below, sparse
// Gauss-Seidel above. LU is exact and handles the ill-conditioned
// systems that arise when the target is nearly unreachable (huge
// hitting times), where the sweeps converge too slowly; it remains
// affordable up to a few thousand states.
const denseHittingCutoff = 5000

// solveHitting solves A x = b where A is assembled in COO form.
func solveHitting(coo *linalg.COO, b []float64) ([]float64, error) {
	if coo.Rows <= denseHittingCutoff {
		return linalg.LUSolve(coo.ToCSR().ToDense(), b)
	}
	return linalg.SolveSparseGaussSeidel(coo.ToCSR(), b, linalg.Options{})
}

// ExpectedHittingTimes returns, for every state i, the expected time
// to first reach any state in target. Target states get 0. The system
// solved is the standard one: for i not in target,
//
//	sum_j Q[i][j] h[j] = -1.
//
// States that cannot reach the target make the system singular; an
// error is returned in that case.
func (c *Chain) ExpectedHittingTimes(target func(state int) bool) ([]float64, error) {
	n := c.NumStates()
	if n == 0 {
		return nil, errors.New("ctmc: empty chain")
	}
	// Index map for non-target states.
	idx := make([]int, n)
	var free []int
	for i := 0; i < n; i++ {
		if target(i) {
			idx[i] = -1
		} else {
			idx[i] = len(free)
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return make([]float64, n), nil
	}
	m := len(free)
	a := linalg.NewCOO(m, m)
	b := make([]float64, m)
	q := c.Generator()
	for r, i := range free {
		b[r] = -1
		q.RangeRow(i, func(j int, v float64) {
			if idx[j] >= 0 {
				a.Add(r, idx[j], v)
			}
		})
	}
	h, err := solveHitting(a, b)
	if err != nil {
		return nil, fmt.Errorf("ctmc: hitting-time system (target unreachable from some state?): %w", err)
	}
	out := make([]float64, n)
	for r, i := range free {
		if h[r] < 0 {
			return nil, fmt.Errorf("ctmc: negative hitting time %g at state %d", h[r], i)
		}
		out[i] = h[r]
	}
	return out, nil
}

// HittingProbabilities returns, for every state, the probability of
// reaching a target state before an avoid state. Target states get 1,
// avoid states 0. Solved from
//
//	sum_j Q[i][j] p[j] = 0 for transient i.
func (c *Chain) HittingProbabilities(target, avoid func(state int) bool) ([]float64, error) {
	n := c.NumStates()
	if n == 0 {
		return nil, errors.New("ctmc: empty chain")
	}
	idx := make([]int, n)
	var free []int
	for i := 0; i < n; i++ {
		switch {
		case target(i) && avoid(i):
			return nil, fmt.Errorf("ctmc: state %d is both target and avoid", i)
		case target(i) || avoid(i):
			idx[i] = -1
		default:
			idx[i] = len(free)
			free = append(free, i)
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if target(i) {
			out[i] = 1
		}
	}
	if len(free) == 0 {
		return out, nil
	}
	m := len(free)
	a := linalg.NewCOO(m, m)
	b := make([]float64, m)
	q := c.Generator()
	for r, i := range free {
		q.RangeRow(i, func(j int, v float64) {
			switch {
			case idx[j] >= 0:
				a.Add(r, idx[j], v)
			case target(j):
				b[r] -= v
			}
		})
	}
	p, err := solveHitting(a, b)
	if err != nil {
		return nil, fmt.Errorf("ctmc: hitting-probability system: %w", err)
	}
	for r, i := range free {
		v := p[r]
		if v < -1e-9 || v > 1+1e-9 {
			return nil, fmt.Errorf("ctmc: hitting probability %g out of range at state %d", v, i)
		}
		out[i] = min(1, max(0, v))
	}
	return out, nil
}

// ConditionalHittingTimes returns, per state, the probability p of
// reaching target before avoid, and the conditional expected time
// E[T | target first] (0 where p = 0 and for boundary states).
// Solved from the standard pair of systems on the transient states:
//
//	Q p = 0 boundary-corrected, then Q g = -p, E = g / p.
func (c *Chain) ConditionalHittingTimes(target, avoid func(state int) bool) (probs, condTimes []float64, err error) {
	n := c.NumStates()
	probs, err = c.HittingProbabilities(target, avoid)
	if err != nil {
		return nil, nil, err
	}
	idx := make([]int, n)
	var free []int
	for i := 0; i < n; i++ {
		if target(i) || avoid(i) {
			idx[i] = -1
		} else {
			idx[i] = len(free)
			free = append(free, i)
		}
	}
	condTimes = make([]float64, n)
	if len(free) == 0 {
		return probs, condTimes, nil
	}
	m := len(free)
	a := linalg.NewCOO(m, m)
	b := make([]float64, m)
	q := c.Generator()
	for r, i := range free {
		b[r] = -probs[i]
		q.RangeRow(i, func(j int, v float64) {
			if idx[j] >= 0 {
				a.Add(r, idx[j], v)
			}
		})
	}
	g, err := solveHitting(a, b)
	if err != nil {
		return nil, nil, fmt.Errorf("ctmc: conditional hitting system: %w", err)
	}
	for r, i := range free {
		if probs[i] > 1e-14 {
			condTimes[i] = g[r] / probs[i]
			if condTimes[i] < 0 {
				return nil, nil, fmt.Errorf("ctmc: negative conditional time %g at state %d", condTimes[i], i)
			}
		}
	}
	return probs, condTimes, nil
}

// PassageTimeCDF returns P(the chain, started from the distribution
// init, has entered the target set by time x). Target states are made
// absorbing for the computation (the probability of *first* passage by
// x). Computed by uniformised transient analysis of the modified
// chain.
func (c *Chain) PassageTimeCDF(init []float64, target func(state int) bool, x float64) (float64, error) {
	n := c.NumStates()
	if len(init) != n {
		return 0, fmt.Errorf("ctmc: init length %d != %d states", len(init), n)
	}
	// The absorbing copy shares the state table and drops transitions
	// out of target states.
	abs := &Chain{st: c.st}
	for _, t := range c.transitions {
		if !target(t.From) {
			abs.transitions = append(abs.transitions, t)
		}
	}
	pt, err := abs.Transient(init, x, 1e-12)
	if err != nil {
		return 0, err
	}
	var mass float64
	for i := 0; i < n; i++ {
		if target(i) {
			mass += pt[i]
		}
	}
	if mass < 0 {
		mass = 0
	}
	if mass > 1 {
		mass = 1
	}
	return mass, nil
}
