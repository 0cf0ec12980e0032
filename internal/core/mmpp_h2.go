package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

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
	arr.validate()
	if t <= 0 || n < 1 || k1 < 1 || k2 < 1 {
		panic("core: invalid TAGH2MMPP parameters")
	}
	if len(service.Alpha) != 2 {
		panic("core: TAGH2MMPP requires a two-branch hyper-exponential")
	}
	return TAGH2MMPP{Arrivals: arr, Service: service, T: t, N: n, K1: k1, K2: k2}
}

// AlphaPrime mirrors TAGH2.
func (m TAGH2MMPP) AlphaPrime() float64 {
	return dist.ResidualH2AfterErlang(m.Service, m.N, m.T).Alpha[0]
}

type tagH2MMPPState struct {
	phase int
	tagH2State
}

func (s tagH2MMPPState) label() string {
	return fmt.Sprintf("P%d|%s", s.phase, s.tagH2State.label())
}

// Build derives the CTMC.
func (m TAGH2MMPP) Build() *ctmc.Chain {
	top := m.N - 1
	alpha := m.Service.Alpha[0]
	mu := [3]float64{0, m.Service.Mu[0], m.Service.Mu[1]}
	ap := m.AlphaPrime()
	rates := [2]float64{m.Arrivals.Rate1, m.Arrivals.Rate2}
	switches := [2]float64{m.Arrivals.Switch1, m.Arrivals.Switch2}

	d := newRateDeriver(tagH2MMPPState{tagH2State: tagH2State{tm1: top, tm2: top}})
	emit := d.emit
	d.explore(func(s tagH2MMPPState) {
		departNode1 := func(base tagH2MMPPState, rate float64, action string) {
			base.q1 = s.q1 - 1
			base.tm1 = top
			if base.q1 == 0 {
				base.ty1 = 0
				emit(base, rate, action)
				return
			}
			short := base
			short.ty1 = 1
			emit(short, rate*alpha, action)
			long := base
			long.ty1 = 2
			emit(long, rate*(1-alpha), action)
		}

		// Phase flip.
		flip := s
		flip.phase = 1 - s.phase
		emit(flip, switches[s.phase], "switch")

		// Node 1 with phase-dependent arrivals.
		lambda := rates[s.phase]
		if lambda > 0 {
			if s.q1 < m.K1 {
				to := s
				to.q1++
				if s.q1 == 0 {
					short := to
					short.ty1 = 1
					emit(short, lambda*alpha, ActArrival)
					long := to
					long.ty1 = 2
					emit(long, lambda*(1-alpha), ActArrival)
				} else {
					emit(to, lambda, ActArrival)
				}
			} else {
				emit(s, lambda, ActLossArrival)
			}
		}
		if s.q1 > 0 {
			departNode1(s, mu[s.ty1], ActService1)
			if s.tm1 > 0 {
				to := s
				to.tm1--
				emit(to, m.T, ActTick1)
			} else {
				to := s
				if s.q2 < m.K2 {
					to.q2++
					departNode1(to, m.T, ActTimeout)
				} else {
					departNode1(to, m.T, ActLossTransfer)
				}
			}
		}

		// Node 2.
		if s.q2 > 0 {
			switch s.sv2 {
			case 0:
				if s.tm2 > 0 {
					to := s
					to.tm2--
					emit(to, m.T, ActTick2)
				} else {
					short := s
					short.sv2 = 1
					short.tm2 = top
					emit(short, m.T*ap, ActRepeatService)
					long := s
					long.sv2 = 2
					long.tm2 = top
					emit(long, m.T*(1-ap), ActRepeatService)
				}
			default:
				to := s
				to.q2--
				to.sv2 = 0
				emit(to, mu[s.sv2], ActService2)
			}
		}
	})
	return d.chain()
}

// Analyze solves the model.
func (m TAGH2MMPP) Analyze() (Measures, error) { return analyzeTwoNode(m.Build()) }
