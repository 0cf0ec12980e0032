package core

import (
	"fmt"

	"pepatags/internal/ctmc"
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
	if a.Rate1 <= 0 || a.Rate2 < 0 || a.Switch1 <= 0 || a.Switch2 <= 0 {
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
	arr.validate()
	if mu <= 0 || t <= 0 || n < 1 || k1 < 1 || k2 < 1 {
		panic("core: invalid TAGExpMMPP parameters")
	}
	return TAGExpMMPP{Arrivals: arr, Mu: mu, T: t, N: n, K1: k1, K2: k2}
}

type tagMMPPState struct {
	tagExpState
	phase int // arrival phase 0 or 1
}

func (s tagMMPPState) label() string {
	return fmt.Sprintf("P%d|%s", s.phase, s.tagExpState.label())
}

// Build derives the CTMC (the Poisson model's space times the two
// arrival phases).
func (m TAGExpMMPP) Build() *ctmc.Chain {
	top := m.N - 1
	d := newRateDeriver(tagMMPPState{tagExpState: tagExpState{tm1: top, tm2: top}})
	emit := d.emit
	rates := [2]float64{m.Arrivals.Rate1, m.Arrivals.Rate2}
	switches := [2]float64{m.Arrivals.Switch1, m.Arrivals.Switch2}
	d.explore(func(s tagMMPPState) {

		// Phase flip.
		flip := s
		flip.phase = 1 - s.phase
		emit(flip, switches[s.phase], "switch")

		// Node 1 with the phase-dependent arrival rate.
		lambda := rates[s.phase]
		if lambda > 0 {
			if s.q1 < m.K1 {
				to := s
				to.q1++
				emit(to, lambda, ActArrival)
			} else {
				emit(s, lambda, ActLossArrival)
			}
		}
		if s.q1 > 0 {
			to := s
			to.q1--
			to.tm1 = top
			emit(to, m.Mu, ActService1)
			if s.tm1 > 0 {
				to := s
				to.tm1--
				emit(to, m.T, ActTick1)
			} else {
				to := s
				to.q1--
				to.tm1 = top
				if s.q2 < m.K2 {
					to.q2++
					emit(to, m.T, ActTimeout)
				} else {
					emit(to, m.T, ActLossTransfer)
				}
			}
		}

		// Node 2 (identical to the Poisson model).
		if s.q2 > 0 {
			if !s.sv2 {
				if s.tm2 > 0 {
					to := s
					to.tm2--
					emit(to, m.T, ActTick2)
				} else {
					to := s
					to.sv2 = true
					to.tm2 = top
					emit(to, m.T, ActRepeatService)
				}
			} else {
				to := s
				to.q2--
				to.sv2 = false
				emit(to, m.Mu, ActService2)
			}
		}
	})
	return d.chain()
}

// Analyze solves the model.
func (m TAGExpMMPP) Analyze() (Measures, error) { return analyzeTwoNode(m.Build()) }

// ShortestQueueMMPP is the JSQ baseline under the same MMPP-2
// arrivals, for like-for-like burstiness comparisons.
type ShortestQueueMMPP struct {
	Arrivals MMPP2
	Mu       float64
	K        int
}

type jsqMMPPState struct {
	phase  int
	q1, q2 int
}

func (s jsqMMPPState) label() string { return fmt.Sprintf("P%d|A%d|B%d", s.phase, s.q1, s.q2) }

func (s jsqMMPPState) population(dst []int32) []int32 {
	return append(dst, int32(s.q1), int32(s.q2))
}

// Build derives the CTMC.
func (m ShortestQueueMMPP) Build() *ctmc.Chain {
	m.Arrivals.validate()
	if m.Mu <= 0 || m.K < 1 {
		panic("core: invalid ShortestQueueMMPP")
	}
	d := newRateDeriver(jsqMMPPState{})
	emit := d.emit
	rates := [2]float64{m.Arrivals.Rate1, m.Arrivals.Rate2}
	switches := [2]float64{m.Arrivals.Switch1, m.Arrivals.Switch2}
	d.explore(func(s jsqMMPPState) {
		flip := s
		flip.phase = 1 - s.phase
		emit(flip, switches[s.phase], "switch")

		lambda := rates[s.phase]
		if lambda > 0 {
			switch {
			case s.q1 >= m.K && s.q2 >= m.K:
				emit(s, lambda, ActLossArrival)
			case s.q1 < s.q2 || s.q2 >= m.K:
				to := s
				to.q1++
				emit(to, lambda, ActArrival)
			case s.q2 < s.q1 || s.q1 >= m.K:
				to := s
				to.q2++
				emit(to, lambda, ActArrival)
			default:
				a := s
				a.q1++
				emit(a, lambda/2, ActArrival)
				bq := s
				bq.q2++
				emit(bq, lambda/2, ActArrival)
			}
		}
		if s.q1 > 0 {
			to := s
			to.q1--
			emit(to, m.Mu, ActService1)
		}
		if s.q2 > 0 {
			to := s
			to.q2--
			emit(to, m.Mu, ActService2)
		}
	})
	return d.chain()
}

// Analyze solves the model.
func (m ShortestQueueMMPP) Analyze() (Measures, error) { return analyzeTwoNode(m.Build()) }
