package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// The TAG rule. Every two-node TAG model of this package is one
// configuration of the transition rules below: Figure 3 (TAGExp),
// Figure 5 (TAGH2), their MMPP-2 counterparts for the Section 7
// bursty-arrival study (TAGExpMMPP, TAGH2MMPP) and the Section 3
// variants (TAGHetero). A configuration fixes the arrival process,
// the node-1 service (exponential, or H2 with the branch sampled at
// the head), the rate slot of each node's service and timer, the
// timer phase count, and the two semantic switches: the literal
// Figure 3 tick during residual service and serve-alone-to-completion.
// Every edge is emitted symbolically (slot × coefficient), so the five
// models share one emission path and one rate arithmetic.

// tagConfig is one configuration of the TAG rule: the structure of a
// model plus the values of its rate slots and branch coefficients.
type tagConfig struct {
	model string // the exported model type, for messages
	kind  string // Shape.Kind

	n, k1, k2 int // timer phases (before literal's extra one) and queue capacities

	// literal is the printed Figure 3 semantics: an (n+1)-phase timer
	// that also ticks at node 2 during the residual service.
	literal bool
	// serveAlone suppresses the node-1 timeout while the job is alone.
	serveAlone bool
	// arrivals selects MMPP-2 arrivals, with the phase flip emitted
	// first; nil means Poisson arrivals at SlotLambda.
	arrivals *MMPP2
	// h2 selects H2 service: a job's branch is sampled when it becomes
	// the node-1 head (alpha) and again when its residual service
	// begins at node 2 (alpha'); the branch picks SlotMu1 or SlotMu2
	// at either node. Otherwise node j serves at slot mu[j].
	h2      bool
	service dist.HyperExp // the H2 service, when h2
	mu      [2]RateSlot   // exponential service slot of each node
	timer   [2]RateSlot   // timer phase-rate slot of each node

	rates rateTable
}

// checked validates c and fills in the MMPP-2 arrival rates, the H2
// service rates and the branch coefficients.
func (c tagConfig) checked() *tagConfig {
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("core: invalid %s: ", c.model) + fmt.Sprintf(format, args...))
	}
	if c.n < 1 || c.k1 < 1 || c.k2 < 1 {
		fail("N=%d, K1=%d, K2=%d must be at least 1", c.n, c.k1, c.k2)
	}
	used := []RateSlot{c.timer[0], c.timer[1]}
	if a := c.arrivals; a != nil {
		a.validate()
		c.rates.slot[SlotLambda], c.rates.slot[slotLambda2] = a.Rate1, a.Rate2
		c.rates.slot[slotSwitch1], c.rates.slot[slotSwitch2] = a.Switch1, a.Switch2
	} else {
		used = append(used, SlotLambda)
	}
	var alpha float64
	if c.h2 {
		if len(c.service.Alpha) != 2 || len(c.service.Mu) != 2 {
			fail("service %+v is not a two-branch hyper-exponential", c.service)
		}
		if alpha = c.service.Alpha[0]; !(alpha >= 0 && alpha <= 1) {
			fail("short-job probability %g outside [0, 1]", alpha)
		}
		c.rates.slot[SlotMu1], c.rates.slot[SlotMu2] = c.service.Mu[0], c.service.Mu[1]
		used = append(used, SlotMu1, SlotMu2)
	} else {
		used = append(used, c.mu[0], c.mu[1])
	}
	for _, s := range used {
		if r := c.rates.slot[s]; !(r > 0) {
			fail("%s=%g must be positive", slotNames[s], r)
		}
	}
	var alphaPrime float64
	if c.h2 {
		alphaPrime = dist.ResidualH2AfterErlang(c.service, c.n, c.rates.slot[c.timer[0]]).Alpha[0]
	}
	c.rates.coeff = branchCoeffs(alpha, alphaPrime)
	return &c
}

// phases returns the number of exponential stages in the timeout.
func (c *tagConfig) phases() int {
	if c.literal {
		return c.n + 1
	}
	return c.n
}

// shape returns the configuration's canonical structure. Only the H2
// configurations emit branch coefficients, so only their degeneracy
// mask is part of the shape.
func (c *tagConfig) shape() Shape {
	var zero uint8
	if c.h2 {
		zero = c.rates.zeroCoeffs()
	}
	return Shape{Kind: c.kind, Phases: c.phases(), K1: c.k1, K2: c.k2, Literal: c.literal, ZeroCoeffs: zero}
}

// Label formats of tagState, by configuration.
const (
	tagLabelH2   uint8 = 1 << iota // Figure 5 state: branch fields, node-2 stage as 0/1/2
	tagLabelMMPP                   // "P<phase>|" prefix
)

// tagState is the joint state of a TAG chain. Its fields are narrow and
// unpadded, so the deriver interns it as 20 plain bytes.
type tagState struct {
	q1, tm1 int32 // node 1: jobs, and timer phase (phases-1 down to 0)
	q2, tm2 int32 // node 2: jobs, and timer phase
	ty1     uint8 // branch of the node-1 head under H2 service: 0 none, 1 short, 2 long
	sv2     uint8 // node-2 head: 0 in its repeat period, else in residual service on branch sv2 (1 for exponential service)
	phase   uint8 // MMPP-2 arrival phase (0 under Poisson arrivals)
	form    uint8 // label format: tagLabelH2 | tagLabelMMPP
}

func (s tagState) label() string {
	var l string
	if s.form&tagLabelH2 != 0 {
		l = fmt.Sprintf("Q1_%d.%d.T1_%d|Q2_%d.%d.T2_%d", s.q1, s.ty1, s.tm1, s.q2, s.sv2, s.tm2)
	} else {
		sv := "w"
		if s.sv2 != 0 {
			sv = "s"
		}
		l = fmt.Sprintf("Q1_%d.T1_%d|Q2_%d%s.T2_%d", s.q1, s.tm1, s.q2, sv, s.tm2)
	}
	if s.form&tagLabelMMPP != 0 {
		l = fmt.Sprintf("P%d|%s", s.phase, l)
	}
	return l
}

func (s tagState) population(dst []int32) []int32 {
	return append(dst, s.q1, s.q2)
}

// branch is one outcome of sampling a job's service branch: the branch
// the state records and the coefficient of the edge that takes it.
type branch struct {
	ty    uint8
	coeff Coeff
}

var (
	expHead     = []branch{{0, CoeffOne}}
	expResidual = []branch{{1, CoeffOne}}
	h2Head      = []branch{{1, CoeffAlpha}, {2, CoeffOneMinusAlpha}}
	h2Residual  = []branch{{1, CoeffAlphaPrime}, {2, CoeffOneMinusAlphaPrime}}
)

// serviceSlot returns the slot of node j's service rate for a job on
// branch ty.
func (c *tagConfig) serviceSlot(j int, ty uint8) RateSlot {
	if c.h2 {
		return SlotMu1 + RateSlot(ty-1)
	}
	return c.mu[j]
}

// derive explores the configuration's reachable states breadth-first
// from the empty system (state 0) and returns the skeleton together
// with the typed states, indexed like the skeleton's state table.
func (c *tagConfig) derive() (*Skeleton, []tagState) {
	top := int32(c.phases() - 1) // timer reset value
	k1, k2 := int32(c.k1), int32(c.k2)
	head, residual := expHead, expResidual
	var form uint8
	if c.h2 {
		head, residual = h2Head, h2Residual
		form |= tagLabelH2
	}
	if c.arrivals != nil {
		form |= tagLabelMMPP
	}
	shape := c.shape()
	d := newSkeletonDeriver(tagState{tm1: top, tm2: top, form: form}, c.rates.zeroSlots(), shape.ZeroCoeffs)
	emit := d.emit
	d.explore(func(s tagState) {
		// toHead emits to once per sampled branch of its new node-1
		// head.
		toHead := func(to tagState, slot RateSlot, action string) {
			for _, b := range head {
				to.ty1 = b.ty
				emit(to, slot, b.coeff, action)
			}
		}
		// departNode1 emits the departure of the node-1 head at the
		// given slot rate: the timer resets and the next job in line,
		// if any, becomes the head.
		departNode1 := func(to tagState, slot RateSlot, action string) {
			to.q1 = s.q1 - 1
			to.tm1 = top
			if to.q1 == 0 {
				to.ty1 = 0
				emit(to, slot, CoeffOne, action)
				return
			}
			toHead(to, slot, action)
		}

		// --- Arrivals ---
		arrival := SlotLambda
		if c.arrivals != nil {
			flip := s
			flip.phase = 1 - s.phase
			emit(flip, slotSwitch1+RateSlot(s.phase), CoeffOne, actSwitch)
			if s.phase == 1 {
				arrival = slotLambda2
			}
		}
		if s.q1 < k1 {
			to := s
			to.q1++
			if s.q1 == 0 {
				toHead(to, arrival, ActArrival)
			} else {
				emit(to, arrival, CoeffOne, ActArrival)
			}
		} else {
			emit(s, arrival, CoeffOne, ActLossArrival)
		}

		// --- Node 1: service races the timer ---
		if s.q1 > 0 {
			departNode1(s, c.serviceSlot(0, s.ty1), ActService1)
			switch {
			case s.tm1 > 0:
				to := s
				to.tm1--
				emit(to, c.timer[0], CoeffOne, ActTick1)
			case c.serveAlone && s.q1 == 1:
				// Served alone to completion: no timeout.
			default:
				// Timeout: the job is killed at node 1 and restarted at
				// node 2, or lost when node 2 is full.
				to, action := s, ActLossTransfer
				if s.q2 < k2 {
					to.q2++
					action = ActTimeout
				}
				departNode1(to, c.timer[0], action)
			}
		}

		// --- Node 2: repeat period, then the residual service ---
		if s.q2 > 0 {
			if s.tm2 > 0 && (s.sv2 == 0 || c.literal) {
				to := s
				to.tm2--
				emit(to, c.timer[1], CoeffOne, ActTick2)
			}
			if s.sv2 == 0 {
				if s.tm2 == 0 {
					// repeatservice: the residual service begins on a
					// sampled branch; the timer returns to the top.
					to := s
					to.tm2 = top
					for _, b := range residual {
						to.sv2 = b.ty
						emit(to, c.timer[1], b.coeff, ActRepeatService)
					}
				}
			} else {
				to := s
				to.q2--
				to.sv2 = 0
				emit(to, c.serviceSlot(1, s.sv2), CoeffOne, ActService2)
			}
		}
	})
	return d.skeleton(shape), d.states
}

// build derives the configuration's chain at its own rates.
func (c *tagConfig) build() *ctmc.Chain {
	sk, _ := c.derive()
	return sk.chain(&c.rates)
}
