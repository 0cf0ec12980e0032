package sweep

import (
	"pepatags/internal/core"
	"pepatags/internal/ctmc"
)

// tagModel is a TAG model the cache derives and solves.
type tagModel interface {
	core.SkeletonModel
	AnalyzeChain(*ctmc.Chain) (core.Measures, error)
}

// tagModelAt returns the point's TAG model at Erlang phase rate t:
// TAGExp for exponential service, TAGH2 for H2. It serves the "tagexp",
// "tagh2" and "opt-t" models, whose service kind picks the model.
func (p Point) tagModelAt(t float64) tagModel {
	if p.Service.Kind == "exp" {
		return core.TAGExp{Lambda: p.Lambda, Mu: p.Service.Mu, T: t, N: p.N, K1: p.K1, K2: p.K2}
	}
	return core.TAGH2{Lambda: p.Lambda, Service: p.Service.h2(), T: t, N: p.N, K1: p.K1, K2: p.K2}
}

// ShapeKey returns the content address of the model shape behind the
// point — the cache key its solve will hit — and whether the point
// routes through the cache at all. The memoryless baselines ("random",
// "round-robin", "shortest-queue") solve directly and report false.
//
// The key depends only on the shape (model family, phase counts and
// capacities), never on rates, so an "opt-t" search point maps to the
// single shape all of its timeout evaluations share. Long-running
// callers use this to predict, before admitting a job, how many fresh
// state-space derivations it will cost (see internal/serve/admission).
func (p Point) ShapeKey() (key string, cached bool) {
	switch p.Model {
	case "tagexp", "tagh2", "opt-t":
		return p.tagModelAt(max(p.T, 1)).Shape().Key(), true
	default:
		return "", false
	}
}

// FreshShapes counts the distinct shapes among the points that are not
// yet present in the cache — the number of state-space derivations a
// run over these points would have to pay. A nil cache counts every
// distinct shape as fresh.
func FreshShapes(points []Point, cache *Cache) int {
	seen := make(map[string]bool)
	for _, p := range points {
		key, cached := p.ShapeKey()
		if !cached || seen[key] {
			continue
		}
		seen[key] = true
	}
	fresh := 0
	for key := range seen {
		if cache == nil || !cache.Contains(key) {
			fresh++
		}
	}
	return fresh
}
