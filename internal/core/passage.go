package core

import "fmt"

// First-passage analyses backing the paper's Section 5 explanation of
// why TAG loses fewer jobs than the shortest queue: "The first queue
// is unlikely to become full as no job will spend long in service, due
// to the timeout mechanism", while under JSQ two long jobs eventually
// fill both queues.

// ExpectedFillTimes returns the expected time, starting from the empty
// system, until node 1 first fills and until node 2 first fills.
func (m TAGExp) ExpectedFillTimes() (node1, node2 float64, err error) {
	sk, states := m.derive()
	c := sk.chain(m.RateValues())
	const init = 0 // derivation starts from the empty system
	h1, err := c.ExpectedHittingTimes(func(s int) bool { return states[s].q1 >= m.K1 })
	if err != nil {
		return 0, 0, fmt.Errorf("core: node-1 fill time: %w", err)
	}
	h2, err := c.ExpectedHittingTimes(func(s int) bool { return states[s].q2 >= m.K2 })
	if err != nil {
		return 0, 0, fmt.Errorf("core: node-2 fill time: %w", err)
	}
	return h1[init], h2[init], nil
}

// ExpectedFillTime returns the expected time from the empty system
// until any queue of the shortest-queue system fills (the loss
// precondition under JSQ is both queues full; "either full" is
// reported for symmetry with TAG and "both full" as the loss event).
func (m ShortestQueue) ExpectedFillTime() (eitherFull, bothFull float64, err error) {
	c, states := m.derive()
	const init = 0 // derivation starts from the empty system
	he, err := c.ExpectedHittingTimes(func(s int) bool {
		return states[s].q1 >= m.K || states[s].q2 >= m.K
	})
	if err != nil {
		return 0, 0, err
	}
	hb, err := c.ExpectedHittingTimes(func(s int) bool {
		return states[s].q1 >= m.K && states[s].q2 >= m.K
	})
	if err != nil {
		return 0, 0, err
	}
	return he[init], hb[init], nil
}
