package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// MMPP2 parameterises a two-phase Markov-modulated Poisson arrival
// stream for the analytic bursty-arrival study of Section 7: arrivals
// at Rate1 in phase 1 and Rate2 in phase 2, phase flips at Switch1
// (1 -> 2) and Switch2 (2 -> 1).
type MMPP2 struct {
	Rate1, Rate2     float64
	Switch1, Switch2 float64
}

func (a MMPP2) validate() {
	if !(a.Rate1 > 0 && a.Rate2 >= 0 && a.Switch1 > 0 && a.Switch2 > 0) {
		panic(fmt.Sprintf("core: invalid MMPP2 %+v", a))
	}
}

// MeanRate is the stationary arrival rate.
func (a MMPP2) MeanRate() float64 {
	p1 := a.Switch2 / (a.Switch1 + a.Switch2)
	return p1*a.Rate1 + (1-p1)*a.Rate2
}

// BurstyMMPP2 builds an MMPP with the given mean rate whose phase-1
// rate is burst times the mean (and phase-2 rate is scaled down to
// preserve the mean), flipping phases at the given rate. burst > 1.
func BurstyMMPP2(mean, burst, flip float64) MMPP2 {
	if burst <= 1 || mean <= 0 || flip <= 0 {
		panic("core: BurstyMMPP2 needs burst > 1, mean > 0, flip > 0")
	}
	r1 := burst * mean
	r2 := 2*mean - r1 // equal phase occupancy: (r1 + r2)/2 = mean
	if r2 < 0 {
		r2 = 0
	}
	return MMPP2{Rate1: r1, Rate2: r2, Switch1: flip, Switch2: flip}
}

// TAGExpMMPP is the Figure 3 TAG model with MMPP-2 arrivals: the exact
// CTMC counterpart of the paper's Section 7 conjecture that bursty
// traffic hurts TAG. The state gains the modulating phase.
type TAGExpMMPP struct {
	Arrivals MMPP2
	Mu       float64
	T        float64
	N        int
	K1, K2   int
}

// NewTAGExpMMPP validates and returns the model.
func NewTAGExpMMPP(arr MMPP2, mu, t float64, n, k1, k2 int) TAGExpMMPP {
	m := TAGExpMMPP{Arrivals: arr, Mu: mu, T: t, N: n, K1: k1, K2: k2}
	m.config() // validates
	return m
}

// config returns the model's configuration of the TAG rule, validated.
func (m TAGExpMMPP) config() *tagConfig {
	return tagConfig{
		model: "TAGExpMMPP", kind: "tagexp-mmpp", n: m.N, k1: m.K1, k2: m.K2, arrivals: &m.Arrivals,
		mu: [2]RateSlot{SlotMu, SlotMu}, timer: [2]RateSlot{SlotT, SlotT}, rates: RateValues{Mu: m.Mu, T: m.T}.table(),
	}.checked()
}

// Build derives the CTMC (the Poisson model's space times the two
// arrival phases).
func (m TAGExpMMPP) Build() *ctmc.Chain { return m.config().build() }

// Analyze solves the model.
func (m TAGExpMMPP) Analyze() (Measures, error) { return analyzeTwoNode(m.Build()) }

// TAGH2MMPP combines the paper's two stress axes analytically:
// hyper-exponential (heavy-tailed) service *and* bursty MMPP-2
// arrivals — the regime where TAG's strengths (size filtering) and
// weaknesses (all bursts land on node 1) collide. The CTMC is the
// Figure 5 model's space times the two arrival phases.
type TAGH2MMPP struct {
	Arrivals MMPP2
	Service  dist.HyperExp
	T        float64
	N        int
	K1, K2   int
}

// NewTAGH2MMPP validates and returns the model.
func NewTAGH2MMPP(arr MMPP2, service dist.HyperExp, t float64, n, k1, k2 int) TAGH2MMPP {
	m := TAGH2MMPP{Arrivals: arr, Service: service, T: t, N: n, K1: k1, K2: k2}
	m.config() // validates
	return m
}

// config returns the model's configuration of the TAG rule, validated.
func (m TAGH2MMPP) config() *tagConfig {
	return tagConfig{
		model: "TAGH2MMPP", kind: "tagh2-mmpp", n: m.N, k1: m.K1, k2: m.K2, arrivals: &m.Arrivals, h2: true,
		service: m.Service, timer: [2]RateSlot{SlotT, SlotT}, rates: RateValues{T: m.T}.table(),
	}.checked()
}

// AlphaPrime mirrors TAGH2.
func (m TAGH2MMPP) AlphaPrime() float64 { return m.config().rates.coeff[CoeffAlphaPrime] }

// Build derives the CTMC.
func (m TAGH2MMPP) Build() *ctmc.Chain { return m.config().build() }

// Analyze solves the model.
func (m TAGH2MMPP) Analyze() (Measures, error) { return analyzeTwoNode(m.Build()) }

// ShortestQueueMMPP is the JSQ baseline under the same MMPP-2
// arrivals, for like-for-like burstiness comparisons.
type ShortestQueueMMPP struct {
	Arrivals MMPP2
	Mu       float64
	K        int
}

// config returns the model's configuration of the routing rule,
// validated: join the shortest queue under MMPP-2 arrivals, with
// exponential service.
func (m ShortestQueueMMPP) config() *routeConfig {
	return routeConfig{k: m.K, arrivals: &m.Arrivals, form: routeLabelPhase}.checked("ShortestQueueMMPP", dist.Exponential{Mu: m.Mu})
}

// Build derives the CTMC.
func (m ShortestQueueMMPP) Build() *ctmc.Chain {
	c, _ := m.config().derive()
	return c
}

// Analyze solves the model.
func (m ShortestQueueMMPP) Analyze() (Measures, error) { return analyzeTwoNode(m.Build()) }
