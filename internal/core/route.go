package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// The routing rule. The conventional baselines route each arrival to
// one of two bounded FIFO queues: join the shortest queue
// (ShortestQueue, and ShortestQueueMMPP under MMPP-2 arrivals) or
// round robin (RoundRobinAlloc). Each is one configuration of the rule
// below; the two nodes share one queue piece, in which a job's H2
// branch is sampled when it starts service (on arrival at an idle node,
// or when the job ahead departs).

// routeConfig is one configuration of the routing rule.
type routeConfig struct {
	k  int  // per-queue capacity
	rr bool // round robin; otherwise join the shortest queue

	lambda float64 // Poisson arrival rate
	// arrivals selects MMPP-2 arrivals, with the phase flip emitted
	// first; nil means Poisson arrivals at lambda.
	arrivals *MMPP2

	alpha float64    // short-branch probability (1 for exponential service)
	mu    [3]float64 // service rate by branch: 0 idle, 1 short, 2 long

	form uint8 // label format of routeState
}

// checked validates c and fills in its service, normalised to the
// short-branch probability and the per-branch rates: the exponential is
// the degenerate alpha = 1 case.
func (c routeConfig) checked(model string, service dist.Distribution) *routeConfig {
	if c.arrivals != nil {
		c.arrivals.validate()
	} else if !(c.lambda > 0) {
		panic(fmt.Sprintf("core: invalid %s: lambda=%g", model, c.lambda))
	}
	if c.k < 1 {
		panic(fmt.Sprintf("core: invalid %s: K=%d", model, c.k))
	}
	switch s := service.(type) {
	case dist.Exponential:
		c.alpha, c.mu = 1, [3]float64{0, s.Mu, s.Mu}
	case dist.HyperExp:
		if len(s.Alpha) != 2 || len(s.Mu) != 2 {
			panic(fmt.Sprintf("core: %s supports H2 (two-branch) hyper-exponentials", model))
		}
		c.alpha, c.mu = s.Alpha[0], [3]float64{0, s.Mu[0], s.Mu[1]}
	default:
		panic(fmt.Sprintf("core: unsupported service distribution %T", service))
	}
	if !(c.mu[1] > 0 && c.mu[2] > 0 && c.alpha >= 0 && c.alpha <= 1) {
		panic(fmt.Sprintf("core: invalid %s service %+v", model, service))
	}
	return &c
}

// Label formats of routeState, by configuration.
const (
	routeLabelPhase    uint8 = 1 << iota // "P<phase>|" prefix
	routeLabelNext                       // "N<next>|" prefix
	routeLabelBranches                   // each queue's in-service branch
)

// routeState is the joint state of a routing chain.
type routeState struct {
	q     [2]int32 // jobs at each node
	ty    [2]uint8 // branch of each node's job in service: 0 idle, 1 short, 2 long
	next  uint8    // round robin: the node the next arrival joins
	phase uint8    // MMPP-2 arrival phase
	form  uint8    // label format: routeLabel* bits
}

func (s routeState) label() string {
	var l string
	if s.form&routeLabelPhase != 0 {
		l += fmt.Sprintf("P%d|", s.phase)
	}
	if s.form&routeLabelNext != 0 {
		l += fmt.Sprintf("N%d|", s.next)
	}
	if s.form&routeLabelBranches != 0 {
		return l + fmt.Sprintf("A%d.%d|B%d.%d", s.q[0], s.ty[0], s.q[1], s.ty[1])
	}
	return l + fmt.Sprintf("A%d|B%d", s.q[0], s.q[1])
}

func (s routeState) population(dst []int32) []int32 {
	return append(dst, s.q[0], s.q[1])
}

// derive returns the chain and its typed states, indexed like the
// chain. The initial (empty) state is state 0.
func (c *routeConfig) derive() (*ctmc.Chain, []routeState) {
	k := int32(c.k)
	d := newRateDeriver(routeState{form: c.form})
	emit := d.emit
	d.explore(func(s routeState) {
		// startService emits to, whose node j has just started serving
		// a new job, once per sampled branch of that job.
		startService := func(to routeState, j int, r float64, action string) {
			to.ty[j] = 1
			emit(to, r*c.alpha, action)
			to.ty[j] = 2
			emit(to, r*(1-c.alpha), action)
		}
		// arrive emits an arrival at rate r joining node j of base.
		arrive := func(base routeState, j int, r float64) {
			base.q[j]++
			if base.q[j] == 1 {
				startService(base, j, r, ActArrival)
				return
			}
			emit(base, r, ActArrival)
		}

		// --- Arrivals ---
		lambda := c.lambda
		if a := c.arrivals; a != nil {
			flip := s
			flip.phase = 1 - s.phase
			flipRate := a.Switch1
			lambda = a.Rate1
			if s.phase == 1 {
				flipRate, lambda = a.Switch2, a.Rate2
			}
			emit(flip, flipRate, actSwitch)
		}
		switch {
		case c.rr:
			// The designated node takes the arrival, or loses it when
			// full; the pointer advances either way.
			to := s
			to.next = 1 - s.next
			if s.q[s.next] >= k {
				emit(to, lambda, ActLossArrival)
			} else {
				arrive(to, int(s.next), lambda)
			}
		case s.q[0] >= k && s.q[1] >= k:
			emit(s, lambda, ActLossArrival)
		case s.q[0] < s.q[1] || s.q[1] >= k:
			arrive(s, 0, lambda)
		case s.q[1] < s.q[0] || s.q[0] >= k:
			arrive(s, 1, lambda)
		default: // tie, both have room
			arrive(s, 0, lambda/2)
			arrive(s, 1, lambda/2)
		}

		// --- Departures: the node starts its next job, if any ---
		for j, action := range [2]string{ActService1, ActService2} {
			if s.q[j] == 0 {
				continue
			}
			to := s
			to.q[j]--
			r := c.mu[s.ty[j]]
			if to.q[j] == 0 {
				to.ty[j] = 0
				emit(to, r, action)
			} else {
				startService(to, j, r, action)
			}
		}
	})
	return d.chain(), d.states
}
