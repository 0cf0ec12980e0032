package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/numeric"
)

// TAGMultiNode extends the paper's two-node model to M >= 2 nodes with
// exponential service, the generalisation the paper notes is "a simple
// matter" (Section 3). Node j (0-based) kills jobs whose service
// exceeds its Erlang timeout (N phases at rate T) and passes them to
// node j+1; the last node serves to completion. A job entering node j
// must first repeat the work it received at nodes 0..j-1 — modelled as
// an Erlang with j*N phases at rate T — before its residual
// (memoryless) service races node j's timeout.
//
// Timers freeze while another stage is active (the Figure 5
// convention), keeping each node's head-of-line job description to a
// single phase counter.
type TAGMultiNode struct {
	Lambda float64
	Mu     float64
	T      float64
	N      int
	K      []int // per-node capacities, len >= 2
}

// NewTAGMultiNode validates and returns the model.
func NewTAGMultiNode(lambda, mu, t float64, n int, k []int) TAGMultiNode {
	m := TAGMultiNode{Lambda: lambda, Mu: mu, T: t, N: n, K: k}
	m.validate()
	return m
}

// maxNodes bounds the node count of TAGMultiNode, so its state is a
// fixed-size comparable array. Even at one phase and capacity 1, an
// M-node chain has (M+1)! states: 3.6 million at M = 9.
const maxNodes = 8

func (m TAGMultiNode) validate() {
	if m.Lambda <= 0 || m.Mu <= 0 || m.T <= 0 || m.N < 1 || len(m.K) < 2 {
		panic(fmt.Sprintf("core: invalid TAGMultiNode parameters %+v", m))
	}
	if len(m.K) > maxNodes {
		panic(fmt.Sprintf("core: TAGMultiNode supports at most %d nodes, got %d", maxNodes, len(m.K)))
	}
	for _, k := range m.K {
		if k < 1 {
			panic("core: node capacity must be >= 1")
		}
	}
}

// nodeState describes one node's queue and its head-of-line job:
// stage 0 = repeating prior work (phase counts down repeat phases),
// stage 1 = racing service against the local timeout (phase = timer).
type nodeState struct {
	q     int
	stage int
	phase int
}

// multiState is the joint state of the first n nodes.
type multiState struct {
	n    int
	node [maxNodes]nodeState
}

func (s multiState) label() string {
	out := make([]byte, 0, s.n*8)
	for i, n := range s.node[:s.n] {
		if i > 0 {
			out = append(out, '|')
		}
		out = append(out, fmt.Sprintf("%d.%d.%d", n.q, n.stage, n.phase)...)
	}
	return string(out)
}

func (s multiState) population(dst []int32) []int32 {
	for _, n := range s.node[:s.n] {
		dst = append(dst, int32(n.q))
	}
	return dst
}

// repeatPhases is the length of node j's repeat Erlang.
func (m TAGMultiNode) repeatPhases(j int) int { return j * m.N }

// freshHead initialises node j's head stage after a new job reaches
// the server.
func (m TAGMultiNode) freshHead(j int) (stage, phase int) {
	if j == 0 {
		return 1, m.N - 1 // no repeat at node 0; start the race
	}
	return 0, m.repeatPhases(j) - 1
}

// Build explores the reachable CTMC. State spaces grow quickly with M,
// N and K; intended for small configurations.
func (m TAGMultiNode) Build() *ctmc.Chain {
	m.validate()
	nodes := len(m.K)
	init := multiState{n: nodes}
	for j := 0; j < nodes; j++ {
		st, ph := m.freshHead(j)
		init.node[j] = nodeState{q: 0, stage: st, phase: ph}
	}
	d := newRateDeriver(init)
	emit := d.emit
	d.explore(func(s multiState) {
		// push moves a job into node j (or drops it when full).
		push := func(to multiState, j int, rate float64, action, lossAction string) {
			if to.node[j].q < m.K[j] {
				to.node[j].q++
				if to.node[j].q == 1 {
					to.node[j].stage, to.node[j].phase = m.freshHead(j)
				}
				emit(to, rate, action)
			} else {
				emit(to, rate, lossAction)
			}
		}

		// External arrivals at node 0.
		push(s, 0, m.Lambda, ActArrival, ActLossArrival)

		for j := 0; j < nodes; j++ {
			if s.node[j].q == 0 {
				continue
			}
			last := j == nodes-1
			if s.node[j].stage == 0 {
				// Repeat period.
				to := s
				if s.node[j].phase > 0 {
					to.node[j].phase--
					emit(to, m.T, fmt.Sprintf("repeat%d", j))
				} else {
					to.node[j].stage = 1
					to.node[j].phase = m.N - 1
					emit(to, m.T, fmt.Sprintf("beginservice%d", j))
				}
				continue
			}
			// Racing stage: service always enabled. The head is reset
			// even when the queue empties so the idle state is canonical.
			done := s
			done.node[j].q--
			done.node[j].stage, done.node[j].phase = m.freshHead(j)
			emit(done, m.Mu, fmt.Sprintf("service%d", j))
			if !last {
				if s.node[j].phase > 0 {
					to := s
					to.node[j].phase--
					emit(to, m.T, fmt.Sprintf("tick%d", j))
				} else {
					// Timeout: kill and restart at node j+1.
					to := s
					to.node[j].q--
					to.node[j].stage, to.node[j].phase = m.freshHead(j)
					push(to, j+1, m.T, fmt.Sprintf("transfer%d", j), ActLossTransfer)
				}
			}
		}
	})
	return d.chain()
}

// MultiMeasures are the stationary measures of the multi-node system.
type MultiMeasures struct {
	States     int
	L          []float64 // per-node mean queue length
	LTotal     float64
	Throughput float64 // total completion rate
	Loss       float64
	W          float64
}

// Analyze solves the model.
func (m TAGMultiNode) Analyze() (MultiMeasures, error) {
	c := m.Build()
	pi, err := c.SteadyState()
	if err != nil {
		return MultiMeasures{}, err
	}
	nodes := len(m.K)
	out := MultiMeasures{States: c.NumStates(), L: make([]float64, nodes)}
	var acc numeric.Accumulator
	for j := 0; j < nodes; j++ {
		out.L[j] = c.Expectation(pi, func(s int) float64 { return float64(c.Population(s, j)) })
		acc.Add(out.L[j])
		out.Throughput += c.ActionThroughput(pi, fmt.Sprintf("service%d", j))
	}
	out.LTotal = acc.Sum()
	out.Loss = c.ActionThroughput(pi, ActLossArrival) + c.ActionThroughput(pi, ActLossTransfer)
	if out.Throughput > 0 {
		out.W = out.LTotal / out.Throughput
	}
	return out, nil
}
