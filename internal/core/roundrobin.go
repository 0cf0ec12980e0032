package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// RoundRobinAlloc is the third simple strategy of the paper's
// introduction ("assign jobs to service centres on a round robin
// basis"), as an exact CTMC: two bounded queues and a deterministic
// alternation bit. An arrival goes to the designated queue; if that
// queue is full it is lost (the pointer still advances). Exponential
// or two-branch H2 service, with the in-service branch sampled at
// service start as in the other models.
type RoundRobinAlloc struct {
	Lambda  float64
	Service dist.Distribution
	K       int
}

// NewRoundRobinTwoNode validates and returns the model.
func NewRoundRobinTwoNode(lambda float64, service dist.Distribution, k int) RoundRobinAlloc {
	m := RoundRobinAlloc{Lambda: lambda, Service: service, K: k}
	m.params()
	return m
}

func (m RoundRobinAlloc) params() (alpha, mu1, mu2 float64) {
	if m.Lambda <= 0 || m.K < 1 {
		panic(fmt.Sprintf("core: invalid RoundRobinAlloc %+v", m))
	}
	switch s := m.Service.(type) {
	case dist.Exponential:
		return 1, s.Mu, s.Mu
	case dist.HyperExp:
		if len(s.Alpha) != 2 {
			panic("core: RoundRobinAlloc supports two-branch hyper-exponentials")
		}
		return s.Alpha[0], s.Mu[0], s.Mu[1]
	default:
		panic(fmt.Sprintf("core: unsupported service distribution %T", m.Service))
	}
}

type rrState struct {
	next   int // queue the next arrival goes to (0 or 1)
	q1, t1 int
	q2, t2 int
}

func (s rrState) label() string {
	return fmt.Sprintf("N%d|A%d.%d|B%d.%d", s.next, s.q1, s.t1, s.q2, s.t2)
}

// queue returns the length of the queue the next arrival goes to.
func (s rrState) queue() int {
	if s.next == 1 {
		return s.q2
	}
	return s.q1
}

func (s rrState) population(dst []int32) []int32 {
	return append(dst, int32(s.q1), int32(s.q2))
}

// Build derives the CTMC.
func (m RoundRobinAlloc) Build() *ctmc.Chain {
	c, _ := m.derive()
	return c
}

// derive returns the chain and its typed states, indexed like the
// chain.
func (m RoundRobinAlloc) derive() (*ctmc.Chain, []rrState) {
	alpha, mu1, mu2 := m.params()
	mu := [3]float64{0, mu1, mu2}
	d := newRateDeriver(rrState{})
	emit := d.emit
	d.explore(func(s rrState) {
		// Arrival to the designated queue; the pointer advances either way.
		if s.queue() >= m.K {
			to := s
			to.next = 1 - s.next
			emit(to, m.Lambda, ActLossArrival)
		} else {
			to := s
			to.next = 1 - s.next
			if s.next == 0 {
				to.q1++
				if s.q1 == 0 {
					a, bq := to, to
					a.t1, bq.t1 = 1, 2
					emit(a, m.Lambda*alpha, ActArrival)
					emit(bq, m.Lambda*(1-alpha), ActArrival)
				} else {
					emit(to, m.Lambda, ActArrival)
				}
			} else {
				to.q2++
				if s.q2 == 0 {
					a, bq := to, to
					a.t2, bq.t2 = 1, 2
					emit(a, m.Lambda*alpha, ActArrival)
					emit(bq, m.Lambda*(1-alpha), ActArrival)
				} else {
					emit(to, m.Lambda, ActArrival)
				}
			}
		}
		// Departures with next-head branch sampling.
		if s.q1 > 0 {
			to := s
			to.q1--
			if to.q1 == 0 {
				to.t1 = 0
				emit(to, mu[s.t1], ActService1)
			} else {
				a, bq := to, to
				a.t1, bq.t1 = 1, 2
				emit(a, mu[s.t1]*alpha, ActService1)
				emit(bq, mu[s.t1]*(1-alpha), ActService1)
			}
		}
		if s.q2 > 0 {
			to := s
			to.q2--
			if to.q2 == 0 {
				to.t2 = 0
				emit(to, mu[s.t2], ActService2)
			} else {
				a, bq := to, to
				a.t2, bq.t2 = 1, 2
				emit(a, mu[s.t2]*alpha, ActService2)
				emit(bq, mu[s.t2]*(1-alpha), ActService2)
			}
		}
	})
	return d.chain(), d.states
}

// Analyze solves the model.
func (m RoundRobinAlloc) Analyze() (Measures, error) { return analyzeTwoNode(m.Build()) }
