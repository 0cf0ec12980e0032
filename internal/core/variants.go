package core

import "pepatags/internal/ctmc"

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
	m.config() // validates
	return m
}

// config returns the model's configuration of the TAG rule, validated:
// the Figure 3 rule with a service and timer rate slot per node.
func (m TAGHetero) config() *tagConfig {
	var rt rateTable
	rt.slot[SlotLambda] = m.Lambda
	rt.slot[SlotMu1], rt.slot[SlotMu2] = m.Mu1, m.Mu2
	rt.slot[SlotT], rt.slot[slotT2] = m.T1, m.T2
	return tagConfig{
		model: "TAGHetero", kind: "taghetero", n: m.N, k1: m.K1, k2: m.K2, serveAlone: m.ServeAloneToCompletion,
		mu: [2]RateSlot{SlotMu1, SlotMu2}, timer: [2]RateSlot{SlotT, slotT2}, rates: rt,
	}.checked()
}

// Build derives the reachable CTMC, reusing the Figure 3 state shape.
func (m TAGHetero) Build() *ctmc.Chain { return m.config().build() }

// Analyze solves the model.
func (m TAGHetero) Analyze() (Measures, error) { return analyzeTwoNode(m.Build()) }
