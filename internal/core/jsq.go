package core

import (
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
	m.config() // validates
	return m
}

// config returns the model's configuration of the routing rule,
// validated.
func (m ShortestQueue) config() *routeConfig {
	return routeConfig{k: m.K, lambda: m.Lambda, form: routeLabelBranches}.checked("ShortestQueue", m.Service)
}

// Build derives the CTMC.
func (m ShortestQueue) Build() *ctmc.Chain {
	c, _ := m.config().derive()
	return c
}

// Analyze solves the model.
func (m ShortestQueue) Analyze() (Measures, error) { return analyzeTwoNode(m.Build()) }
