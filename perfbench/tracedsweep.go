package main

import (
	"fmt"
	"sort"
	"sync"

	"pepatags/internal/approx"
	"pepatags/internal/core"
	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
	"pepatags/internal/linalg"
	"pepatags/internal/obsv"
	"pepatags/internal/sweep"
)

// The traced pass rebuilds each sweep point from the layers' public
// functions — the same calls sweep.Run makes through its cache — with a
// span around each call. TestTracedSweepMatchesEngine keeps it equal to
// the engine row for row.

// passStats counts the work of one traced pass.
type passStats struct {
	mu             sync.Mutex
	optPoints      int // opt-t points
	evals          int // evaluator calls made by the optimal-t searches
	skeletons      int // skeleton derivations (cache misses)
	skeletonStates int // states over those derivations
	solves         int // one per instantiated chain
	nnz            int // generator non-zeros over the solved chains
	gthSolves      int // solves the dense GTH stage handled
	fallbacks      int // solves that fell back from Gauss-Seidel to power iteration
	sweeps         int // iterations of the iterative solves
	flops          float64
	sweepBytes     float64 // computed bytes of one sweep, summed over iterative solves
	maxResidual    float64
}

// solved records one steady-state solve of a chain with n states and
// nnz generator non-zeros.
func (st *passStats) solved(s obsv.SolveStats, n, nnz int, residual float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.solves++
	st.nnz += nnz
	st.maxResidual = max(st.maxResidual, residual)
	switch s.Solver {
	case "":
		// SteadyStateAuto reports nothing through Stats for GTH.
		st.gthSolves++
		return
	case "power":
		st.fallbacks++
	}
	st.sweeps += s.Iterations
	// One sweep reads every non-zero once: a multiply and an add each.
	st.flops += 2 * float64(nnz) * float64(s.Iterations)
	// Computed from array sizes, ignoring caches: values and column
	// indices (8 bytes each) per non-zero; row pointer, diagonal and a
	// read and a write of π per state.
	st.sweepBytes += 16*float64(nnz) + 32*float64(n) + 8
}

// tracedCache mirrors sweep.Cache: one skeleton and generator pattern
// per model shape, derived on first use.
type tracedCache struct {
	mu      sync.Mutex
	entries map[string]*tracedEntry
}

type tracedEntry struct {
	mu   sync.Mutex
	skel *core.Skeleton
	pat  *ctmc.GenPattern
}

func (c *tracedCache) entry(key string) *tracedEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		e = &tracedEntry{}
		c.entries[key] = e
	}
	return e
}

// tracedPass evaluates points with spans around each layer call.
type tracedPass struct {
	tr    *tracer
	cache tracedCache
	st    passStats
}

// tracedSweep evaluates every point on a pool of workers, as sweep.Run
// does, and returns the rows in point order.
func tracedSweep(tr *tracer, points []sweep.Point, workers int) ([]sweep.Row, *passStats, error) {
	tp := &tracedPass{tr: tr, cache: tracedCache{entries: make(map[string]*tracedEntry)}}
	workers = max(1, min(workers, len(points)))
	var (
		mu       sync.Mutex
		rows     []sweep.Row
		firstErr error
		wg       sync.WaitGroup
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range jobs {
				p := points[seq]
				var meas map[string]float64
				err := tr.do("sweep.point", 0, seq, func(id int) error {
					var err error
					meas, err = tp.evalPoint(p, seq, id)
					return err
				})
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("point %d (series %q): %w", seq, p.Series, err)
				}
				rows = append(rows, sweep.Row{Seq: seq, Series: p.Series, X: p.X, Measures: meas})
				mu.Unlock()
			}
		}()
	}
	for seq := range points {
		jobs <- seq
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, &tp.st, firstErr
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Seq < rows[j].Seq })
	return rows, &tp.st, nil
}

// tagModel is a TAG model the cache can derive and solve.
type tagModel interface {
	core.SkeletonModel
	AnalyzeChain(*ctmc.Chain) (core.Measures, error)
}

// tagModelAt returns the TAG model of point p at Erlang phase rate t.
func tagModelAt(p sweep.Point, t float64) (tagModel, error) {
	switch p.Service.Kind {
	case "exp":
		return core.TAGExp{Lambda: p.Lambda, Mu: p.Service.Mu, T: t, N: p.N, K1: p.K1, K2: p.K2}, nil
	case "h2":
		h := dist.H2ForTAG(p.Service.Mean, p.Service.Alpha, p.Service.Ratio)
		return core.TAGH2{Lambda: p.Lambda, Service: h, T: t, N: p.N, K1: p.K1, K2: p.K2}, nil
	default:
		return nil, fmt.Errorf("unknown service kind %q", p.Service.Kind)
	}
}

// evalPoint mirrors the engine's per-point evaluation.
func (tp *tracedPass) evalPoint(p sweep.Point, seq, parent int) (map[string]float64, error) {
	switch p.Model {
	case "tagexp", "tagh2":
		m, err := tagModelAt(p, p.T)
		if err != nil {
			return nil, err
		}
		meas, err := tp.analyze(m, seq, parent)
		if err != nil {
			return nil, err
		}
		return measureMap(meas), nil
	case "random", "round-robin", "shortest-queue":
		d, err := p.Service.Dist()
		if err != nil {
			return nil, err
		}
		var meas core.Measures
		err = tp.tr.do("core.baseline", parent, seq, func(int) error {
			var sys core.System
			switch p.Model {
			case "random":
				sys = core.NewRandomTwoNode(p.Lambda, d, p.K1)
			case "round-robin":
				sys = core.NewRoundRobinTwoNode(p.Lambda, d, p.K1)
			default:
				sys = core.NewShortestQueue(p.Lambda, d, p.K1)
			}
			var err error
			meas, err = sys.Analyze()
			return err
		})
		if err != nil {
			return nil, err
		}
		return measureMap(meas), nil
	case "opt-t":
		return tp.optimalT(p, seq, parent)
	default:
		return nil, fmt.Errorf("unknown model %q", p.Model)
	}
}

// optimalT runs the point's optimal-t search with an evaluator that
// traces every model it solves.
func (tp *tracedPass) optimalT(p sweep.Point, seq, parent int) (map[string]float64, error) {
	var metric approx.Metric
	switch p.Metric {
	case "min-queue":
		metric = approx.MinQueueLength
	case "min-response":
		metric = approx.MinResponseTime
	case "max-throughput":
		metric = approx.MaxThroughput
	default:
		return nil, fmt.Errorf("unknown metric %q", p.Metric)
	}
	var (
		tOpt int
		meas core.Measures
	)
	err := tp.tr.do("approx.search", parent, seq, func(search int) error {
		evals := 0
		eval := func(t int) (core.Measures, error) {
			evals++
			m, err := tagModelAt(p, float64(t))
			if err != nil {
				return core.Measures{}, err
			}
			var out core.Measures
			err = tp.tr.do("approx.eval", search, seq, func(id int) error {
				var err error
				out, err = tp.analyze(m, seq, id)
				return err
			})
			return out, err
		}
		var err error
		if p.TStep > 1 {
			tOpt, meas, err = approx.OptimalIntegerTCoarse(eval, metric, p.TLo, p.THi, p.TStep)
		} else {
			tOpt, meas, err = approx.OptimalIntegerT(eval, metric, p.TLo, p.THi)
		}
		tp.st.mu.Lock()
		tp.st.optPoints++
		tp.st.evals += evals
		tp.st.mu.Unlock()
		return err
	})
	if err != nil {
		return nil, err
	}
	out := measureMap(meas)
	out["t_opt"] = float64(tOpt)
	out["t_opt_eff"] = float64(tOpt) / float64(p.N)
	return out, nil
}

// analyze derives (on a miss) and instantiates the model's chain, solves
// it once on its own to time the solve and check its residual, then
// extracts the measures with the model's AnalyzeChain, which solves
// again inside.
func (tp *tracedPass) analyze(m tagModel, seq, parent int) (core.Measures, error) {
	tr := tp.tr
	e := tp.cache.entry(m.Shape().Key())
	var ch *ctmc.Chain
	err := func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.skel == nil {
			_ = tr.do("core.skeleton", parent, seq, func(int) error {
				e.skel = m.Skeleton()
				return nil
			})
			tp.st.mu.Lock()
			tp.st.skeletons++
			tp.st.skeletonStates += e.skel.NumStates()
			tp.st.mu.Unlock()
		}
		return tr.do("ctmc.instantiate", parent, seq, func(int) error {
			var err error
			if ch, err = e.skel.Instantiate(m.RateValues()); err != nil {
				return err
			}
			if e.pat == nil {
				e.pat = ctmc.NewGenPattern(ch)
				return nil
			}
			return e.pat.Apply(ch)
		})
	}()
	if err != nil {
		return core.Measures{}, err
	}
	q := ch.Generator()

	var (
		pi []float64
		ss obsv.SolveStats
	)
	err = tr.do("linalg.solve", parent, seq, func(int) error {
		var err error
		pi, err = ch.SteadyStateAuto(linalg.Options{Stats: &ss})
		return err
	})
	if err != nil {
		return core.Measures{}, err
	}
	var res float64
	_ = tr.do("check.residual", parent, seq, func(int) error {
		res = linalg.Residual(q, pi)
		return nil
	})
	tp.st.solved(ss, ch.NumStates(), q.NNZ(), res)

	var meas core.Measures
	err = tr.do("core.analyze_chain", parent, seq, func(int) error {
		var err error
		meas, err = m.AnalyzeChain(ch)
		return err
	})
	return meas, err
}

// measureMap flattens core measures into row form, as the engine does.
func measureMap(m core.Measures) map[string]float64 {
	return map[string]float64{
		"states":        float64(m.States),
		"L1":            m.L1,
		"L2":            m.L2,
		"L":             m.L,
		"X1":            m.X1,
		"X2":            m.X2,
		"throughput":    m.Throughput,
		"loss_arrival":  m.LossArrival,
		"loss_transfer": m.LossTransfer,
		"loss":          m.Loss,
		"W":             m.W,
		"util1":         m.Util1,
		"util2":         m.Util2,
		"timeout_rate":  m.TimeoutRate,
	}
}
