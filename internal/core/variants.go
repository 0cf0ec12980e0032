package core

import (
	"fmt"

	"pepatags/internal/ctmc"
)

// TAGHetero generalises the Figure 3 model to heterogeneous nodes, the
// extension Section 3 sketches: "if the system is heterogeneous, then
// it would be necessary to introduce new rates for the ticks of the
// repeated service and for service2". Node 1 serves at Mu1 with an
// N-phase timeout at phase rate T1; node 2 repeats at phase rate T2
// (N phases) and serves the residual at Mu2.
//
// ServeAloneToCompletion enables the other Section 3 variant: when the
// node-1 queue holds a single job, the timeout is suppressed and the
// job is served to completion unless another arrival re-arms the
// timer ("removing the timeout action from Queue1_1").
type TAGHetero struct {
	Lambda   float64
	Mu1, Mu2 float64
	T1, T2   float64
	N        int
	K1, K2   int

	ServeAloneToCompletion bool
}

// NewTAGHetero validates and returns the model.
func NewTAGHetero(lambda, mu1, mu2, t1, t2 float64, n, k1, k2 int) TAGHetero {
	m := TAGHetero{Lambda: lambda, Mu1: mu1, Mu2: mu2, T1: t1, T2: t2, N: n, K1: k1, K2: k2}
	m.validate()
	return m
}

func (m TAGHetero) validate() {
	if m.Lambda <= 0 || m.Mu1 <= 0 || m.Mu2 <= 0 || m.T1 <= 0 || m.T2 <= 0 ||
		m.N < 1 || m.K1 < 1 || m.K2 < 1 {
		panic(fmt.Sprintf("core: invalid TAGHetero parameters %+v", m))
	}
}

// Build derives the reachable CTMC, reusing the Figure 3 state shape.
func (m TAGHetero) Build() *ctmc.Chain {
	m.validate()
	top := m.N - 1
	d := newRateDeriver(tagExpState{q1: 0, tm1: top, q2: 0, sv2: false, tm2: top})
	emit := d.emit
	d.explore(func(s tagExpState) {

		// Node 1.
		if s.q1 < m.K1 {
			to := s
			to.q1++
			emit(to, m.Lambda, ActArrival)
		} else {
			emit(s, m.Lambda, ActLossArrival)
		}
		if s.q1 > 0 {
			to := s
			to.q1--
			to.tm1 = top
			emit(to, m.Mu1, ActService1)
			if s.tm1 > 0 {
				to := s
				to.tm1--
				emit(to, m.T1, ActTick1)
			} else if !(m.ServeAloneToCompletion && s.q1 == 1) {
				// Timeout fires (suppressed when alone under the
				// serve-to-completion variant).
				to := s
				to.q1--
				to.tm1 = top
				if s.q2 < m.K2 {
					to.q2++
					emit(to, m.T1, ActTimeout)
				} else {
					emit(to, m.T1, ActLossTransfer)
				}
			}
		}

		// Node 2.
		if s.q2 > 0 {
			if !s.sv2 {
				if s.tm2 > 0 {
					to := s
					to.tm2--
					emit(to, m.T2, ActTick2)
				} else {
					to := s
					to.sv2 = true
					to.tm2 = top
					emit(to, m.T2, ActRepeatService)
				}
			} else {
				to := s
				to.q2--
				to.sv2 = false
				emit(to, m.Mu2, ActService2)
			}
		}
	})
	return d.chain()
}

// Analyze solves the model.
func (m TAGHetero) Analyze() (Measures, error) { return analyzeTwoNode(m.Build()) }
