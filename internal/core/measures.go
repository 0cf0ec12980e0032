package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/queueing"
)

// Action labels shared by the models.
const (
	ActArrival       = "arrival"
	ActService1      = "service1"
	ActService2      = "service2"
	ActTimeout       = "timeout"       // successful transfer node1 -> node2
	ActRepeatService = "repeatservice" // start of residual service at node 2
	ActTick1         = "tick1"
	ActTick2         = "tick2"
	ActLossArrival   = "loss_arrival"  // dropped on arrival at node 1
	ActLossTransfer  = "loss_transfer" // dropped at node 2 after timing out
)

// Measures are the stationary performance measures of a two-node
// allocation system.
type Measures struct {
	States int // CTMC size

	L1, L2 float64 // mean jobs at node 1 / node 2
	L      float64 // total mean population

	X1, X2     float64 // completion rates at node 1 / node 2
	Throughput float64 // X1 + X2

	LossArrival  float64 // jobs/s dropped at node 1 on arrival
	LossTransfer float64 // jobs/s dropped at node 2 after a timed-out service
	Loss         float64 // total loss rate

	W float64 // mean response time, L / Throughput (Little's law)

	Util1, Util2 float64 // P(node busy)

	TimeoutRate float64 // jobs/s moved from node 1 to node 2 (TAG only)
}

// finish derives the aggregates from the per-node figures.
func (m *Measures) finish() {
	m.L = m.L1 + m.L2
	m.Throughput = m.X1 + m.X2
	m.Loss = m.LossArrival + m.LossTransfer
	m.W = queueing.Little(m.L, m.Throughput)
}

// analyzeTwoNode solves a two-node chain and extracts the measures:
// mean queue lengths and utilisations from the population table of the
// chain's structure, rates from its action throughputs. Actions a
// model lacks (timeouts in the baselines) contribute zero.
func analyzeTwoNode(c *ctmc.Chain) (Measures, error) {
	if c.Nodes() != 2 {
		return Measures{}, fmt.Errorf("core: chain records %d node populations per state, want 2", c.Nodes())
	}
	pi, err := c.SteadyState()
	if err != nil {
		return Measures{}, err
	}
	queue := func(j int) func(int) float64 {
		return func(s int) float64 { return float64(c.Population(s, j)) }
	}
	busy := func(j int) func(int) bool {
		return func(s int) bool { return c.Population(s, j) > 0 }
	}
	out := Measures{States: c.NumStates()}
	out.L1 = c.Expectation(pi, queue(0))
	out.L2 = c.Expectation(pi, queue(1))
	out.X1 = c.ActionThroughput(pi, ActService1)
	out.X2 = c.ActionThroughput(pi, ActService2)
	out.LossArrival = c.ActionThroughput(pi, ActLossArrival)
	out.LossTransfer = c.ActionThroughput(pi, ActLossTransfer)
	out.TimeoutRate = c.ActionThroughput(pi, ActTimeout)
	out.Util1 = c.Probability(pi, busy(0))
	out.Util2 = c.Probability(pi, busy(1))
	out.finish()
	return out, nil
}

// System is any allocation model that can be solved for its stationary
// measures.
type System interface {
	// Analyze builds the model's CTMC, solves for the stationary
	// distribution and returns the measures.
	Analyze() (Measures, error)
}
