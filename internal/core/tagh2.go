package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// TAGH2 is the two-node TAG system with hyper-exponential (H2)
// service demand, the paper's Figure 5 / Section 3.2 model.
//
// A job is "short" (branch 1, rate Mu1) with probability Alpha and
// "long" (branch 2, rate Mu2) otherwise; the branch is sampled when
// the job reaches the head of the node-1 queue. A job that times out
// carries no explicit type to node 2 — instead, after its Erlang
// repeat period the residual service branch is sampled with the
// re-weighted probability alpha' (dist.ResidualH2AfterErlang), exactly
// as the paper's repeatservice branching prescribes.
//
// Following Figure 5 (unlike Figure 3), the node-2 timer does not tick
// during the residual service: each job's repeat period is a full
// Erlang.
type TAGH2 struct {
	Lambda  float64
	Service dist.HyperExp // two-branch H2
	T       float64       // phase rate of the Erlang timeout clock
	N       int           // number of Erlang phases in the timeout
	K1, K2  int
}

// NewTAGH2 validates and returns the model.
func NewTAGH2(lambda float64, service dist.HyperExp, t float64, n, k1, k2 int) TAGH2 {
	m := TAGH2{Lambda: lambda, Service: service, T: t, N: n, K1: k1, K2: k2}
	m.validate()
	return m
}

func (m TAGH2) validate() {
	if m.Lambda <= 0 || m.T <= 0 || m.N < 1 || m.K1 < 1 || m.K2 < 1 {
		panic(fmt.Sprintf("core: invalid TAGH2 parameters %+v", m))
	}
	if len(m.Service.Alpha) != 2 {
		panic("core: TAGH2 requires a two-branch hyper-exponential service")
	}
	if m.Service.Mu[0] <= 0 || m.Service.Mu[1] <= 0 || m.Service.Alpha[0] < 0 || m.Service.Alpha[0] > 1 {
		panic(fmt.Sprintf("core: invalid H2 service %+v", m.Service))
	}
}

// AlphaPrime is the residual short-job probability after surviving the
// Erlang timeout (N phases at rate T, matching the model's timer).
func (m TAGH2) AlphaPrime() float64 {
	return dist.ResidualH2AfterErlang(m.Service, m.N, m.T).Alpha[0]
}

// EffectiveTimeoutRate mirrors TAGExp: the reciprocal of the mean
// total timeout duration N/T.
func (m TAGH2) EffectiveTimeoutRate() float64 { return m.T / float64(m.N) }

type tagH2State struct {
	q1  int // jobs at node 1
	ty1 int // head-of-line branch at node 1: 0 none, 1 short, 2 long
	tm1 int // node-1 timer phase
	q2  int // jobs at node 2
	sv2 int // node-2 head: 0 repeat period, 1 residual short, 2 residual long
	tm2 int // node-2 timer phase
}

func (s tagH2State) label() string {
	return fmt.Sprintf("Q1_%d.%d.T1_%d|Q2_%d.%d.T2_%d", s.q1, s.ty1, s.tm1, s.q2, s.sv2, s.tm2)
}

// Shape returns the canonical model structure: everything that
// determines the reachable state space, with the rates abstracted away.
// For H2 service that includes the degeneracy mask of the branch
// probabilities (an alpha of exactly 0 or 1 removes edges).
func (m TAGH2) Shape() Shape {
	m.validate()
	return Shape{Kind: "tagh2", Phases: m.N, K1: m.K1, K2: m.K2, ZeroCoeffs: m.RateValues().zeroMask()}
}

// RateValues returns this instance's binding for the shape's rate slots
// and branch coefficients. AlphaPrime is the residual short-job
// probability, a derived value that depends on (Service, N, T) but not
// on the structure beyond its degeneracy class.
func (m TAGH2) RateValues() RateValues {
	return RateValues{
		Lambda:     m.Lambda,
		T:          m.T,
		Mu1:        m.Service.Mu[0],
		Mu2:        m.Service.Mu[1],
		Alpha:      m.Service.Alpha[0],
		AlphaPrime: m.AlphaPrime(),
	}
}

// muSlot maps a branch index (1 short, 2 long) to its rate slot.
func muSlot(branch int) RateSlot {
	if branch == 1 {
		return SlotMu1
	}
	return SlotMu2
}

// Skeleton derives the state space and symbolic transition structure by
// breadth-first exploration of the transition rules. Every model with
// the same Shape — including the same branch-probability degeneracy
// mask — yields the same skeleton; Build instantiates it with this
// instance's rates.
func (m TAGH2) Skeleton() *Skeleton {
	m.validate()
	zero := m.RateValues().zeroMask()

	top := m.N - 1 // timer reset value (N phases at rate T)
	b := newSkeletonBuilder()
	init := tagH2State{q1: 0, ty1: 0, tm1: top, q2: 0, sv2: 0, tm2: top}
	b.state(init.label())
	frontier := []tagH2State{init}
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		from, _ := b.state(s.label())
		emit := func(to tagH2State, slot RateSlot, coeff Coeff, action string) {
			if zero&(1<<coeff) != 0 {
				return // degenerate branch probability (alpha 0 or 1)
			}
			i, fresh := b.state(to.label())
			if fresh {
				frontier = append(frontier, to)
			}
			b.edge(from, i, slot, coeff, action)
		}
		// departNode1 emits the two next-head branches of a node-1
		// departure occurring at the given slot rate.
		departNode1 := func(base tagH2State, slot RateSlot, action string) {
			base.q1 = s.q1 - 1
			base.tm1 = top
			if base.q1 == 0 {
				base.ty1 = 0
				emit(base, slot, CoeffOne, action)
				return
			}
			short := base
			short.ty1 = 1
			emit(short, slot, CoeffAlpha, action)
			long := base
			long.ty1 = 2
			emit(long, slot, CoeffOneMinusAlpha, action)
		}

		// --- Node 1 ---
		if s.q1 < m.K1 {
			to := s
			to.q1++
			if s.q1 == 0 {
				// New head: sample its branch on arrival.
				short := to
				short.ty1 = 1
				emit(short, SlotLambda, CoeffAlpha, ActArrival)
				long := to
				long.ty1 = 2
				emit(long, SlotLambda, CoeffOneMinusAlpha, ActArrival)
			} else {
				emit(to, SlotLambda, CoeffOne, ActArrival)
			}
		} else {
			emit(s, SlotLambda, CoeffOne, ActLossArrival)
		}
		if s.q1 > 0 {
			// Service at the head's branch rate.
			departNode1(s, muSlot(s.ty1), ActService1)
			if s.tm1 > 0 {
				to := s
				to.tm1--
				emit(to, SlotT, CoeffOne, ActTick1)
			} else {
				// Timeout: job restarts at node 2 (or is dropped).
				to := s
				if s.q2 < m.K2 {
					to.q2++
					departNode1(to, SlotT, ActTimeout)
				} else {
					departNode1(to, SlotT, ActLossTransfer)
				}
			}
		}

		// --- Node 2 ---
		if s.q2 > 0 {
			switch s.sv2 {
			case 0: // repeat period
				if s.tm2 > 0 {
					to := s
					to.tm2--
					emit(to, SlotT, CoeffOne, ActTick2)
				} else {
					// repeatservice branches on the residual type.
					short := s
					short.sv2 = 1
					short.tm2 = top
					emit(short, SlotT, CoeffAlphaPrime, ActRepeatService)
					long := s
					long.sv2 = 2
					long.tm2 = top
					emit(long, SlotT, CoeffOneMinusAlphaPrime, ActRepeatService)
				}
			default: // residual service; timer frozen (Figure 5 semantics)
				to := s
				to.q2--
				to.sv2 = 0
				emit(to, muSlot(s.sv2), CoeffOne, ActService2)
			}
		}
	}
	return b.finish(m.Shape())
}

// Build derives the reachable CTMC: the skeleton instantiated with this
// instance's rates.
func (m TAGH2) Build() *ctmc.Chain {
	c, err := m.Skeleton().Instantiate(m.RateValues())
	if err != nil {
		panic("core: " + err.Error()) // unreachable: validate vetted the rates
	}
	return c
}

// stateInfo decodes the state structure from the chain labels for
// measure extraction.
func (m TAGH2) stateInfo(c *ctmc.Chain) []tagH2State {
	states := make([]tagH2State, c.NumStates())
	for i := range states {
		s, ok := parseTagH2Label(c.Label(i))
		if !ok {
			panic(fmt.Sprintf("core: cannot decode state label %q", c.Label(i)))
		}
		states[i] = s
	}
	return states
}

// Analyze solves the model.
func (m TAGH2) Analyze() (Measures, error) {
	return m.AnalyzeChain(m.Build())
}

// AnalyzeChain solves a chain built for exactly this model instance —
// by Build, or by a cached skeleton instantiated at this instance's
// rates — and extracts the paper's measures from it.
func (m TAGH2) AnalyzeChain(c *ctmc.Chain) (Measures, error) {
	pi, err := c.SteadyState()
	if err != nil {
		return Measures{}, err
	}
	states := m.stateInfo(c)
	out := Measures{States: c.NumStates()}
	out.L1 = c.Expectation(pi, func(s int) float64 { return float64(states[s].q1) })
	out.L2 = c.Expectation(pi, func(s int) float64 { return float64(states[s].q2) })
	out.X1 = c.ActionThroughput(pi, ActService1)
	out.X2 = c.ActionThroughput(pi, ActService2)
	out.LossArrival = c.ActionThroughput(pi, ActLossArrival)
	out.LossTransfer = c.ActionThroughput(pi, ActLossTransfer)
	out.TimeoutRate = c.ActionThroughput(pi, ActTimeout)
	out.Util1 = c.Probability(pi, func(s int) bool { return states[s].q1 > 0 })
	out.Util2 = c.Probability(pi, func(s int) bool { return states[s].q2 > 0 })
	out.finish()
	return out, nil
}
