package core

import (
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
	m.config() // validates
	return m
}

// config returns the model's configuration of the routing rule,
// validated.
func (m RoundRobinAlloc) config() *routeConfig {
	return routeConfig{k: m.K, rr: true, lambda: m.Lambda, form: routeLabelNext | routeLabelBranches}.checked("RoundRobinAlloc", m.Service)
}

// Build derives the CTMC.
func (m RoundRobinAlloc) Build() *ctmc.Chain {
	c, _ := m.config().derive()
	return c
}

// Analyze solves the model.
func (m RoundRobinAlloc) Analyze() (Measures, error) { return analyzeTwoNode(m.Build()) }
