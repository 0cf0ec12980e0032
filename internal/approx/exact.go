package approx

import (
	"math"

	"pepatags/internal/core"
	"pepatags/internal/dist"
)

// Exact optimisers: sweep the full CTMC model rather than the
// decomposition. These reproduce the paper's "optimal (integer) values
// of t" (42, 45, 49, 51 for lambda = 11, 9, 7, 5 in Figure 8).

// scoreMeasures maps core measures onto a minimisation objective.
func (m Metric) scoreMeasures(r core.Measures) float64 {
	switch m {
	case MinQueueLength:
		return r.L
	case MinResponseTime:
		return r.W
	case MaxThroughput:
		return -r.Throughput
	default:
		panic("approx: unknown metric")
	}
}

// Evaluator solves a model at integer timer phase rate t and returns
// its measures. The search functions take the evaluator rather than
// model parameters so callers can route the (expensive) solves through
// the sweep engine's skeleton cache — see internal/sweep — without
// changing the search logic; the direct constructors below are the
// uncached defaults.
type Evaluator func(t int) (core.Measures, error)

// ExpEvaluator returns the direct (uncached) evaluator for the
// exponential TAG model with the remaining parameters fixed.
func ExpEvaluator(lambda, mu float64, n, k1, k2 int) Evaluator {
	return func(t int) (core.Measures, error) {
		return core.NewTAGExp(lambda, mu, float64(t), n, k1, k2).Analyze()
	}
}

// H2Evaluator returns the direct (uncached) evaluator for the H2 TAG
// model with the remaining parameters fixed.
func H2Evaluator(lambda float64, service dist.HyperExp, n, k1, k2 int) Evaluator {
	return func(t int) (core.Measures, error) {
		return core.NewTAGH2(lambda, service, float64(t), n, k1, k2).Analyze()
	}
}

// OptimalIntegerT finds the integer timer rate t in [lo, hi] minimising
// the metric under the given evaluator. Each t is evaluated once; it
// is the coarse search with step 1, whose refinement pass is empty.
func OptimalIntegerT(eval Evaluator, metric Metric, lo, hi int) (int, core.Measures, error) {
	return OptimalIntegerTCoarse(eval, metric, lo, hi, 1)
}

// OptimalIntegerTCoarse performs a coarse integer sweep with the given
// step followed by a +-(step-1) refinement, cutting the number of
// (expensive) solves roughly by the step factor. Each t is evaluated
// at most once: the measures of the best t so far are kept rather than
// solved again at the end. Like numeric.IntArgMin the search starts at
// lo with score +Inf and moves only on a strictly smaller score, so the
// first of tied minima wins. The first evaluation error ends it.
func OptimalIntegerTCoarse(eval Evaluator, metric Metric, lo, hi, step int) (int, core.Measures, error) {
	if step < 1 {
		step = 1
	}
	best, bestScore, bestM := lo, math.Inf(1), core.Measures{}
	try := func(t int) error {
		r, err := eval(t)
		if err != nil {
			return err
		}
		if s := metric.scoreMeasures(r); s < bestScore {
			best, bestScore, bestM = t, s, r
		} else if t == lo {
			bestM = r // lo stays the answer while nothing scores below +Inf
		}
		return nil
	}
	for t := lo; t <= hi; t += step {
		if err := try(t); err != nil {
			return 0, core.Measures{}, err
		}
	}
	rl, rh := max(best-step+1, lo), min(best+step-1, hi)
	for t := rl; t <= rh; t++ {
		if (t-lo)%step == 0 {
			continue // already scored in the coarse pass
		}
		if err := try(t); err != nil {
			return 0, core.Measures{}, err
		}
	}
	return best, bestM, nil
}

// OptimalIntegerTExp finds the integer Erlang phase rate t in [lo, hi]
// optimising the metric for the exponential TAG model.
func OptimalIntegerTExp(lambda, mu float64, n, k1, k2 int, metric Metric, lo, hi int) (int, core.Measures, error) {
	return OptimalIntegerT(ExpEvaluator(lambda, mu, n, k1, k2), metric, lo, hi)
}

// OptimalIntegerTH2Coarse is the coarse H2 search with the direct
// evaluator.
func OptimalIntegerTH2Coarse(lambda float64, service dist.HyperExp, n, k1, k2 int, metric Metric, lo, hi, step int) (int, core.Measures, error) {
	return OptimalIntegerTCoarse(H2Evaluator(lambda, service, n, k1, k2), metric, lo, hi, step)
}

// OptimalIntegerTH2 is the H2 analogue of OptimalIntegerTExp.
func OptimalIntegerTH2(lambda float64, service dist.HyperExp, n, k1, k2 int, metric Metric, lo, hi int) (int, core.Measures, error) {
	return OptimalIntegerT(H2Evaluator(lambda, service, n, k1, k2), metric, lo, hi)
}
