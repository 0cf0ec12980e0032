package core

import (
	"fmt"

	"pepatags/internal/ctmc"
	"pepatags/internal/numeric"
)

// Tagged-job analysis: the full response-time distribution of an
// admitted job under TAG, not just the Little's-law mean. A tagged
// arrival is followed through an absorbing CTMC whose state tracks
// everything that can still affect it: its position and the timer at
// node 1, and the node-2 configuration (which decides whether a
// timed-out tagged job is admitted or lost, and how long node 2 takes
// once the tagged job is there). Jobs behind the tagged job are
// irrelevant under FIFO and are not tracked.
//
// The initial state distribution follows PASTA: the tagged arrival
// observes the stationary system conditioned on node 1 having room.
//
// This quantifies the paper's informal claim that under TAG "for all
// but the largest jobs the delay is bounded", and exposes the gap
// between the paper's Little's-law W (which counts time accrued by
// jobs later dropped at node 2) and the true mean response time of
// successful jobs.

// taggedState is the absorbing-chain state. Exactly one of the
// location markers applies: atNode1, atNode2, or an absorbing state.
type taggedState struct {
	loc int // 0 = at node 1, 1 = at node 2, 2 = done, 3 = lost

	// Node-1 phase (loc 0): tagged position (1 = in service) and the
	// shared timer, plus the full node-2 configuration.
	pos1, tm1 int
	q2        int
	sv2       bool
	tm2       int

	// Node-2 phase (loc 1): tagged position, the head's stage and the
	// timer (timer meaningful while the head waits; frozen at top while
	// it serves).
	pos2    int
	headSrv bool
	htm2    int
}

func (s taggedState) label() string {
	switch s.loc {
	case 2:
		return "DONE"
	case 3:
		return "LOST"
	case 0:
		sv := "w"
		if s.sv2 {
			sv = "s"
		}
		return fmt.Sprintf("N1.p%d.t%d|Q2_%d%s.T%d", s.pos1, s.tm1, s.q2, sv, s.tm2)
	default:
		sv := "w"
		if s.headSrv {
			sv = "s"
		}
		return fmt.Sprintf("N2.p%d.%s.t%d", s.pos2, sv, s.htm2)
	}
}

// population records nothing: tagged-job measures are absorption
// statistics, not node populations.
func (s taggedState) population(dst []int32) []int32 { return dst }

// TaggedResponse is the computed absorbing chain plus its initial
// distribution.
type TaggedResponse struct {
	chain       *ctmc.Chain
	init        []float64
	doneIdx     int
	lostIdx     int
	successProb float64
	meanCond    float64
}

// TaggedJob builds and solves the tagged-job chain.
func (m TAGExp) TaggedJob() (*TaggedResponse, error) {
	m.validate()
	if m.LiteralFigure3 {
		return nil, fmt.Errorf("core: tagged-job analysis implements the calibrated semantics only")
	}
	top := m.phases() - 1

	// Initial distribution by PASTA over the stationary system state.
	sk, sysStates := m.derive()
	pi, err := sk.chain(m.RateValues()).SteadyState()
	if err != nil {
		return nil, err
	}
	d := newRateDeriver(taggedState{loc: 2}, taggedState{loc: 3}) // done, lost
	var pasta taggedInit
	for i, st := range sysStates {
		if st.q1 >= m.K1 {
			continue // tagged arrival would be dropped; not admitted
		}
		ts := taggedState{loc: 0, pos1: st.q1 + 1, tm1: st.tm1, q2: st.q2, sv2: st.sv2, tm2: st.tm2}
		if st.q1 == 0 {
			ts.tm1 = top // service starts fresh (the timer idles at top)
		}
		pasta.add(d.visit(ts), pi[i])
	}
	if pasta.admitted <= 0 {
		return nil, fmt.Errorf("core: no admitting states")
	}

	emit := d.emit
	d.explore(func(s taggedState) {
		switch s.loc {
		case 0: // tagged at node 1
			// Head-of-line service (the tagged job itself when pos1 == 1).
			if s.pos1 == 1 {
				emit(taggedState{loc: 2}, m.Mu, ActService1)
			} else {
				to := s
				to.pos1--
				to.tm1 = top
				emit(to, m.Mu, ActService1)
			}
			if s.tm1 > 0 {
				to := s
				to.tm1--
				emit(to, m.T, ActTick1)
			} else {
				// Timeout of the head.
				if s.pos1 == 1 {
					// The tagged job is killed and restarts at node 2.
					if s.q2 < m.K2 {
						to := taggedState{loc: 1, pos2: s.q2 + 1, headSrv: s.sv2, htm2: s.tm2}
						if s.q2 == 0 {
							// Tagged becomes the node-2 head, waiting
							// with a fresh repeat timer.
							to.pos2, to.headSrv, to.htm2 = 1, false, s.tm2
						}
						emit(to, m.T, ActTimeout)
					} else {
						emit(taggedState{loc: 3}, m.T, ActLossTransfer)
					}
				} else {
					to := s
					to.pos1--
					to.tm1 = top
					if s.q2 < m.K2 {
						to.q2++
					}
					emit(to, m.T, ActTimeout)
				}
			}
			// Node 2 evolves concurrently while the tagged job queues at
			// node 1 (calibrated semantics: timer frozen during service).
			if s.q2 > 0 {
				if !s.sv2 {
					if s.tm2 > 0 {
						to := s
						to.tm2--
						emit(to, m.T, ActTick2)
					} else {
						to := s
						to.sv2 = true
						to.tm2 = top
						emit(to, m.T, ActRepeatService)
					}
				} else {
					to := s
					to.q2--
					to.sv2 = false
					emit(to, m.Mu, ActService2)
				}
			}

		case 1: // tagged at node 2
			if s.pos2 == 1 {
				// Tagged is the head: repeat period, then residual service.
				if !s.headSrv {
					if s.htm2 > 0 {
						to := s
						to.htm2--
						emit(to, m.T, ActTick2)
					} else {
						to := s
						to.headSrv = true
						to.htm2 = top
						emit(to, m.T, ActRepeatService)
					}
				} else {
					emit(taggedState{loc: 2}, m.Mu, ActService2)
				}
			} else {
				// Another job heads the queue.
				if !s.headSrv {
					if s.htm2 > 0 {
						to := s
						to.htm2--
						emit(to, m.T, ActTick2)
					} else {
						to := s
						to.headSrv = true
						to.htm2 = top
						emit(to, m.T, ActRepeatService)
					}
				} else {
					to := s
					to.pos2--
					to.headSrv = false
					to.htm2 = top
					emit(to, m.Mu, ActService2)
				}
			}
		}
	})
	return pasta.solve(d.chain())
}

// taggedInit accumulates the PASTA initial distribution of a tagged-job
// chain: the stationary mass of each admitting system state, on the
// tagged state it starts the job in.
type taggedInit struct {
	weight   []float64 // by tagged state index
	admitted float64
}

func (p *taggedInit) add(state int, mass float64) {
	p.admitted += mass
	for len(p.weight) <= state {
		p.weight = append(p.weight, 0)
	}
	p.weight[state] += mass
}

// solve computes the absorption statistics of a tagged-job chain whose
// states 0 and 1 are the absorbing done and lost states.
func (p *taggedInit) solve(chain *ctmc.Chain) (*TaggedResponse, error) {
	const done, lost = 0, 1
	init := make([]float64, chain.NumStates())
	for i, w := range p.weight {
		init[i] = w / p.admitted
	}
	probs, times, err := chain.ConditionalHittingTimes(
		func(s int) bool { return s == done },
		func(s int) bool { return s == lost },
	)
	if err != nil {
		return nil, err
	}
	tr := &TaggedResponse{chain: chain, init: init, doneIdx: done, lostIdx: lost}
	var sp, g numeric.Accumulator
	for i, w := range init {
		if w > 0 {
			sp.Add(w * probs[i])
			g.Add(w * probs[i] * times[i])
		}
	}
	tr.successProb = sp.Sum()
	if tr.successProb > 0 {
		tr.meanCond = g.Sum() / tr.successProb
	}
	return tr, nil
}

// States returns the absorbing-chain size.
func (tr *TaggedResponse) States() int { return tr.chain.NumStates() }

// SuccessProbability is the chance an admitted job eventually
// completes (rather than dying at a full node 2 after its timeout).
func (tr *TaggedResponse) SuccessProbability() float64 { return tr.successProb }

// MeanResponse is E[response time | admitted and successful].
func (tr *TaggedResponse) MeanResponse() float64 { return tr.meanCond }

// CDF returns P(response <= x | admitted and successful), computed by
// uniformised transient analysis of the absorbing chain.
func (tr *TaggedResponse) CDF(x float64) (float64, error) {
	if tr.successProb <= 0 {
		return 0, fmt.Errorf("core: success probability is zero")
	}
	pt, err := tr.chain.Transient(tr.init, x, 1e-10)
	if err != nil {
		return 0, err
	}
	return pt[tr.doneIdx] / tr.successProb, nil
}

// Percentile inverts the CDF by bisection on [0, hi]; hi is doubled
// until it covers the requested mass (up to 2^40 times the mean).
func (tr *TaggedResponse) Percentile(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("core: percentile needs 0 < p < 1")
	}
	hi := tr.meanCond
	if hi <= 0 {
		hi = 1
	}
	for i := 0; i < 40; i++ {
		v, err := tr.CDF(hi)
		if err != nil {
			return 0, err
		}
		if v >= p {
			break
		}
		hi *= 2
	}
	lo := 0.0
	for i := 0; i < 60 && hi-lo > 1e-9*(1+hi); i++ {
		mid := (lo + hi) / 2
		v, err := tr.CDF(mid)
		if err != nil {
			return 0, err
		}
		if v < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
