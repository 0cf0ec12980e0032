package core

import "pepatags/internal/ctmc"

// TAGExp is the two-node TAG system of the paper's Figure 3:
// exponential service at rate Mu on both nodes, Poisson arrivals at
// rate Lambda into node 1, an Erlang timeout clock with N exponential
// phases at rate T (mean total timeout duration N/T, the paper's
// "n/t") racing the service at node 1, and a repeat-service period of
// the same Erlang duration at node 2 followed by the (memoryless)
// residual service.
//
// Queues are bounded: arrivals finding node 1 full are lost
// (loss_arrival) and timed-out jobs finding node 2 full are lost after
// having consumed node-1 capacity (loss_transfer) — the paper's "work
// lost" effect.
//
// Phase conventions. The printed Figure 3 timer has derivatives
// Timer_0..Timer_n (n ticks plus the timeout firing, n+1 phases) and a
// tick2 self-loop that lets the node-2 timer run during the residual
// service. The paper's prose ("the average total timeout duration is
// simply n/t") and its reported state count (4331 for n=6,
// K1=K2=10) both correspond instead to an n-phase timer with the
// node-2 timer frozen during residual service; that calibrated
// convention is the default here and reproduces the 4331 states
// exactly. Set LiteralFigure3 for the printed variant ((n+1)-phase
// timers, ticking during service).
type TAGExp struct {
	Lambda float64 // arrival rate
	Mu     float64 // service rate (both nodes)
	T      float64 // phase rate of the Erlang timeout clock
	N      int     // number of Erlang phases in the timeout
	K1, K2 int     // queue capacities

	LiteralFigure3 bool // printed Figure 3 semantics instead of the calibrated ones
}

// NewTAGExp returns a TAGExp with the calibrated (paper-matching)
// semantics.
func NewTAGExp(lambda, mu, t float64, n, k1, k2 int) TAGExp {
	m := TAGExp{Lambda: lambda, Mu: mu, T: t, N: n, K1: k1, K2: k2}
	m.config() // validates
	return m
}

// config returns the model's configuration of the TAG rule, validated.
func (m TAGExp) config() *tagConfig {
	return tagConfig{
		model: "TAGExp", kind: "tagexp", n: m.N, k1: m.K1, k2: m.K2, literal: m.LiteralFigure3,
		mu: [2]RateSlot{SlotMu, SlotMu}, timer: [2]RateSlot{SlotT, SlotT}, rates: m.RateValues().table(),
	}.checked()
}

// MeanTimeoutDuration is the mean of the Erlang timeout.
func (m TAGExp) MeanTimeoutDuration() float64 { return float64(m.config().phases()) / m.T }

// EffectiveTimeoutRate is the reciprocal of the mean total timeout
// duration, the quantity on the paper's x-axes (t/n).
func (m TAGExp) EffectiveTimeoutRate() float64 { return 1 / m.MeanTimeoutDuration() }

// Shape returns the canonical model structure: everything that
// determines the reachable state space, with the rates abstracted away.
func (m TAGExp) Shape() Shape { return m.config().shape() }

// RateValues returns this instance's binding for the shape's rate
// slots: arrivals, service and the timer phase rate.
func (m TAGExp) RateValues() RateValues {
	return RateValues{Lambda: m.Lambda, Mu: m.Mu, T: m.T}
}

// Skeleton derives the state space and symbolic transition structure by
// breadth-first exploration of the transition rules. Every model with
// the same Shape yields the same skeleton; Build instantiates it with
// this instance's rates, so the derivation cost can be paid once per
// shape and shared across parameter points.
func (m TAGExp) Skeleton() *Skeleton {
	sk, _ := m.config().derive()
	return sk
}

// Build derives the reachable CTMC: the skeleton instantiated with this
// instance's rates.
func (m TAGExp) Build() *ctmc.Chain { return m.config().build() }

// Analyze solves the model and returns the paper's measures.
func (m TAGExp) Analyze() (Measures, error) {
	return m.AnalyzeChain(m.Build())
}

// AnalyzeChain solves a chain built for exactly this model instance —
// by Build, or by a cached skeleton instantiated at this instance's
// rates — and extracts the paper's measures from it.
func (m TAGExp) AnalyzeChain(c *ctmc.Chain) (Measures, error) { return analyzeTwoNode(c) }
