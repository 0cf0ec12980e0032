package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// ShortestQueue is the join-the-shortest-queue strategy of the paper's
// Appendix B: two bounded queues; an arrival joins the strictly
// shorter queue, splits evenly on a tie, and is lost only when both
// queues are full. Service is exponential or two-branch
// hyper-exponential; in the H2 case the branch of the job in service
// is sampled when it starts service (each server tracks its current
// job's branch).
type ShortestQueue struct {
	Lambda  float64
	Service dist.Distribution // Exponential or two-branch HyperExp
	K       int               // per-queue capacity
}

// NewShortestQueue validates and returns the model.
func NewShortestQueue(lambda float64, service dist.Distribution, k int) ShortestQueue {
	m := ShortestQueue{Lambda: lambda, Service: service, K: k}
	m.params() // validates
	return m
}

// params normalises the service spec into (alpha, mu1, mu2); the
// exponential is the degenerate alpha=1 case.
func (m ShortestQueue) params() (alpha, mu1, mu2 float64) {
	if m.Lambda <= 0 || m.K < 1 {
		panic(fmt.Sprintf("core: invalid ShortestQueue parameters %+v", m))
	}
	switch s := m.Service.(type) {
	case dist.Exponential:
		return 1, s.Mu, s.Mu
	case dist.HyperExp:
		if len(s.Alpha) != 2 {
			panic("core: ShortestQueue supports H2 (two-branch) hyper-exponentials")
		}
		return s.Alpha[0], s.Mu[0], s.Mu[1]
	default:
		panic(fmt.Sprintf("core: unsupported service distribution %T", m.Service))
	}
}

// jsqState: queue lengths and the branch of each in-service job
// (0 = idle, 1 = short, 2 = long).
type jsqState struct {
	q1, t1 int
	q2, t2 int
}

func (s jsqState) label() string {
	return fmt.Sprintf("A%d.%d|B%d.%d", s.q1, s.t1, s.q2, s.t2)
}

func (s jsqState) population(dst []int32) []int32 {
	return append(dst, int32(s.q1), int32(s.q2))
}

// Build derives the CTMC.
func (m ShortestQueue) Build() *ctmc.Chain {
	c, _ := m.derive()
	return c
}

// derive returns the chain and its typed states, indexed like the
// chain. The initial (empty) state is state 0.
func (m ShortestQueue) derive() (*ctmc.Chain, []jsqState) {
	alpha, mu1, mu2 := m.params()
	mu := [3]float64{0, mu1, mu2}
	d := newRateDeriver(jsqState{})
	emit := d.emit
	d.explore(func(s jsqState) {
		// arriveAt emits the arrival into the given queue at rate r,
		// branching the new job's type when it starts service at once.
		arriveAt := func(node int, r float64) {
			to := s
			if node == 1 {
				to.q1++
				if s.q1 == 0 {
					a, bq := to, to
					a.t1, bq.t1 = 1, 2
					emit(a, r*alpha, ActArrival)
					emit(bq, r*(1-alpha), ActArrival)
					return
				}
			} else {
				to.q2++
				if s.q2 == 0 {
					a, bq := to, to
					a.t2, bq.t2 = 1, 2
					emit(a, r*alpha, ActArrival)
					emit(bq, r*(1-alpha), ActArrival)
					return
				}
			}
			emit(to, r, ActArrival)
		}

		// Routing.
		switch {
		case s.q1 >= m.K && s.q2 >= m.K:
			emit(s, m.Lambda, ActLossArrival)
		case s.q1 < s.q2 || s.q2 >= m.K:
			arriveAt(1, m.Lambda)
		case s.q2 < s.q1 || s.q1 >= m.K:
			arriveAt(2, m.Lambda)
		default: // tie, both have room
			arriveAt(1, m.Lambda/2)
			arriveAt(2, m.Lambda/2)
		}

		// departures: the completing server samples the next job's type.
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
func (m ShortestQueue) Analyze() (Measures, error) { return analyzeTwoNode(m.Build()) }
