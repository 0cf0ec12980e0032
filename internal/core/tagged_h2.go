package core

import "fmt"

// Tagged-job analysis for the hyper-exponential model: the response
// time of an admitted job *conditioned on its own branch* (short or
// long). This disaggregates the paper's per-system means into the
// per-class view behind its fairness footnote: under TAG short jobs
// should see near-ideal response while long jobs absorb the restart
// penalty.
//
// Background jobs ahead of the tagged one follow the Figure 5
// semantics (head types sampled at alpha, node-2 residual branches at
// alpha'); the tagged job itself keeps its known branch throughout —
// in particular its node-2 residual service runs at its own rate,
// which is the exact disaggregation of the model's alpha' mixture.

type taggedH2State struct {
	loc int // 0 = at node 1, 1 = at node 2, 2 = done, 3 = lost

	// Node-1 phase: position, head branch (tagged's own when pos1 == 1),
	// shared timer; plus the node-2 configuration.
	pos1, headTy, tm1 int
	q2, sv2, tm2      int

	// Node-2 phase: position, head stage (0 wait, 1/2 residual branch),
	// head timer.
	pos2, headSt, htm2 int
}

func (s taggedH2State) label() string {
	switch s.loc {
	case 2:
		return "DONE"
	case 3:
		return "LOST"
	case 0:
		return fmt.Sprintf("N1.p%d.h%d.t%d|%d.%d.%d", s.pos1, s.headTy, s.tm1, s.q2, s.sv2, s.tm2)
	default:
		return fmt.Sprintf("N2.p%d.%d.t%d", s.pos2, s.headSt, s.htm2)
	}
}

func (s taggedH2State) population(dst []int32) []int32 { return dst }

// TaggedJob builds and solves the absorbing chain for a tagged job of
// the given branch (1 = short, 2 = long).
func (m TAGH2) TaggedJob(jobType int) (*TaggedResponse, error) {
	c := m.config()
	if jobType != 1 && jobType != 2 {
		return nil, fmt.Errorf("core: jobType must be 1 or 2, got %d", jobType)
	}
	top := m.N - 1
	alpha := m.Service.Alpha[0]
	mu := [3]float64{0, m.Service.Mu[0], m.Service.Mu[1]}
	ap := c.rates.coeff[CoeffAlphaPrime]

	// PASTA initial distribution.
	sk, sysStates := c.derive()
	pi, err := sk.chain(&c.rates).SteadyState()
	if err != nil {
		return nil, err
	}
	d := newRateDeriver(taggedH2State{loc: 2}, taggedH2State{loc: 3}) // done, lost
	var pasta taggedInit
	for i, st := range sysStates {
		if int(st.q1) >= m.K1 {
			continue
		}
		ts := taggedH2State{loc: 0, pos1: int(st.q1) + 1, headTy: int(st.ty1), tm1: int(st.tm1),
			q2: int(st.q2), sv2: int(st.sv2), tm2: int(st.tm2)}
		if st.q1 == 0 {
			ts.headTy = jobType // the tagged job starts service at once
			ts.tm1 = top
		}
		pasta.add(d.visit(ts), pi[i])
	}
	if pasta.admitted <= 0 {
		return nil, fmt.Errorf("core: no admitting states")
	}

	emit := func(to taggedH2State, rate float64) { d.emit(to, rate, "move") }
	d.explore(func(s taggedH2State) {
		// nextHead branches the type of the job that reaches the node-1
		// server after a departure (deterministic when it is the tagged
		// job).
		departAhead := func(base taggedH2State, rate float64) {
			base.pos1 = s.pos1 - 1
			base.tm1 = top
			if base.pos1 == 1 {
				base.headTy = jobType
				emit(base, rate)
				return
			}
			short := base
			short.headTy = 1
			emit(short, rate*alpha)
			long := base
			long.headTy = 2
			emit(long, rate*(1-alpha))
		}

		switch s.loc {
		case 0:
			// Head service (tagged when pos1 == 1).
			if s.pos1 == 1 {
				emit(taggedH2State{loc: 2}, mu[s.headTy])
			} else {
				departAhead(s, mu[s.headTy])
			}
			if s.tm1 > 0 {
				to := s
				to.tm1--
				emit(to, m.T)
			} else {
				// Head timeout.
				if s.pos1 == 1 {
					if s.q2 < m.K2 {
						to := taggedH2State{loc: 1, pos2: s.q2 + 1, headSt: s.sv2, htm2: s.tm2}
						if s.q2 == 0 {
							to.headSt, to.htm2 = 0, top
						}
						emit(to, m.T)
					} else {
						emit(taggedH2State{loc: 3}, m.T)
					}
				} else {
					to := s
					if s.q2 < m.K2 {
						to.q2++
					}
					departAhead(to, m.T)
				}
			}
			// Node-2 background evolution.
			if s.q2 > 0 {
				switch s.sv2 {
				case 0:
					if s.tm2 > 0 {
						to := s
						to.tm2--
						emit(to, m.T)
					} else {
						short := s
						short.sv2 = 1
						short.tm2 = top
						emit(short, m.T*ap)
						long := s
						long.sv2 = 2
						long.tm2 = top
						emit(long, m.T*(1-ap))
					}
				default:
					to := s
					to.q2--
					to.sv2 = 0
					to.tm2 = top
					emit(to, mu[s.sv2])
				}
			}

		case 1:
			if s.pos2 == 1 {
				// Tagged is the node-2 head: repeat, then its own
				// residual branch.
				if s.headSt == 0 {
					if s.htm2 > 0 {
						to := s
						to.htm2--
						emit(to, m.T)
					} else {
						to := s
						to.headSt = jobType
						to.htm2 = top
						emit(to, m.T)
					}
				} else {
					emit(taggedH2State{loc: 2}, mu[jobType])
				}
			} else {
				// A background job heads the queue.
				if s.headSt == 0 {
					if s.htm2 > 0 {
						to := s
						to.htm2--
						emit(to, m.T)
					} else {
						short := s
						short.headSt = 1
						short.htm2 = top
						emit(short, m.T*ap)
						long := s
						long.headSt = 2
						long.htm2 = top
						emit(long, m.T*(1-ap))
					}
				} else {
					to := s
					to.pos2--
					to.headSt = 0
					to.htm2 = top
					emit(to, mu[s.headSt])
				}
			}
		}
	})
	return pasta.solve(d.chain())
}

// ClassResponse summarises the per-branch view of TAGH2.
type ClassResponse struct {
	Type         int     // 1 short, 2 long
	SuccessProb  float64 // P(complete | admitted, type)
	MeanResponse float64 // E[T | success, type]
	MeanSlowdown float64 // MeanResponse / (1/mu_type)
}

// ClassResponses computes both branches' conditional responses and
// slowdowns.
func (m TAGH2) ClassResponses() ([2]ClassResponse, error) {
	var out [2]ClassResponse
	for ty := 1; ty <= 2; ty++ {
		tr, err := m.TaggedJob(ty)
		if err != nil {
			return out, err
		}
		out[ty-1] = ClassResponse{
			Type:         ty,
			SuccessProb:  tr.SuccessProbability(),
			MeanResponse: tr.MeanResponse(),
			MeanSlowdown: tr.MeanResponse() * m.Service.Mu[ty-1],
		}
	}
	return out, nil
}
