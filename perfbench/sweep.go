package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"pepatags/internal/exp"
	"pepatags/internal/obsv"
	"pepatags/internal/sweep"
)

// Scan-cold grid: both TAG families over every (k, n) pair, so every
// point is a distinct model shape and every cache lookup misses.
var (
	scanK = []int{8, 11, 14, 17, 20}
	scanN = []int{2, 3, 4, 5, 6}
)

const (
	// scanLambda is the centre of the band the seed draws each scan
	// point's arrival rate from: light load, so the solves stay short
	// and construction dominates.
	scanLambda = 2.0
	scanBand   = 0.05 // half-width of the band, relative to scanLambda
	scanEff    = 5.0  // effective timeout rate t/n of every scan point
)

// metricPointSeconds is the per-point histogram sweep.Run registers.
const metricPointSeconds = "sweep.point_seconds"

// fig12Spec is Figure 12's own sweep at the short parameters: H2 service
// at λ = 11, a coarse max-throughput optimal-t search per α plus the
// random and shortest-queue baselines. The grid is the paper's, so the
// seed is unused.
func fig12Spec(uint64) (*sweep.Spec, error) {
	return exp.SweepSpec("figure12", exp.ShortParams())
}

// scanSpec lists one point per (family, k, n) with λ drawn from the
// seed.
func scanSpec(seed uint64) (*sweep.Spec, error) {
	rng := rand.New(rand.NewPCG(seed, seed^0x5ca1ab1e))
	s := &sweep.Spec{Schema: sweep.SpecSchema, Name: "scan-cold"}
	services := []struct {
		model string
		svc   sweep.ServiceSpec
	}{
		{"tagexp", sweep.ServiceSpec{Kind: "exp", Mu: 10}},
		{"tagh2", sweep.ServiceSpec{Kind: "h2", Mean: 0.1, Alpha: 0.95, Ratio: 10}},
	}
	for _, sv := range services {
		for _, k := range scanK {
			for _, n := range scanN {
				lambda := scanLambda * (1 + scanBand*(2*rng.Float64()-1))
				s.Points = append(s.Points, sweep.Point{
					Series: sv.model, X: float64(k), Model: sv.model,
					Lambda: lambda, T: scanEff * float64(n), N: n, K1: k, K2: k,
					Service: sv.svc,
				})
			}
		}
	}
	return s, nil
}

// sweepBench runs a sweep spec through sweep.Run.
type sweepBench struct {
	name    string
	workers int
	build   func(seed uint64) (*sweep.Spec, error)

	spec   *sweep.Spec
	points []sweep.Point
	ref    []sweepRowRef // nil when the reference has no rows for this workload
	exact  bool          // the inputs equal the reference inputs
	first  []sweep.Row   // rows of the first batch; later batches must repeat them
	last   []sweep.Row
}

func (b *sweepBench) setup(seed uint64, ref *reference, tr *tracer) error {
	return tr.do("sweep.setup", 0, -1, func(int) error {
		spec, err := b.build(seed)
		if err != nil {
			return err
		}
		if err := spec.Validate(); err != nil {
			return err
		}
		points, err := spec.Expand()
		if err != nil {
			return err
		}
		b.spec, b.points = spec, points
		if ref == nil {
			return nil
		}
		rows, ok := ref.Sweeps[b.name]
		if !ok {
			return fmt.Errorf("reference has no rows for %s", b.name)
		}
		if len(rows) != len(points) {
			return fmt.Errorf("reference has %d rows for %s, the spec %d points", len(rows), b.name, len(points))
		}
		b.ref = rows
		// Figure 12's grid ignores the seed, so its reference holds at
		// every seed.
		b.exact = seed == ref.Seed || b.name == "fig12-optt"
		return nil
	})
}

// runEngine is one untraced sweep with a fresh cache, as a tagseval run
// pays it.
func (b *sweepBench) runEngine(reg *obsv.Registry) (*sweep.RunResult, time.Duration, error) {
	t0 := time.Now()
	res, err := sweep.Run(b.spec, sweep.Options{Workers: b.workers, Cache: sweep.NewCache(), Registry: reg})
	return res, time.Since(t0), err
}

func (b *sweepBench) batch() (int, time.Duration, ops) {
	res, d, err := b.runEngine(nil)
	if err != nil {
		return 0, d, ops{attempted: len(b.points), failed: len(b.points)}
	}
	return len(res.Rows), d, b.check(res.Rows)
}

// check counts the rows that fail a check. The first batch's rows are
// kept; every later batch must repeat them bit for bit.
func (b *sweepBench) check(rows []sweep.Row) ops {
	o := ops{attempted: len(b.points)}
	if len(rows) != len(b.points) {
		o.failed = len(b.points)
		return o
	}
	for i, r := range rows {
		var ref *sweepRowRef
		if b.ref != nil {
			ref = &b.ref[i]
		}
		if err := checkRow(i, b.points[i], r, ref, b.exact); err != nil {
			o.failed++
			logf("%s: %v", b.name, err)
		}
	}
	b.last = rows
	if b.first == nil {
		b.first = rows
	} else if !sameRows(rows, b.first) {
		logf("%s: rows differ from the first batch", b.name)
		o.failed = o.attempted
	}
	return o
}

func (b *sweepBench) reference(ref *reference) {
	rows := make([]sweepRowRef, len(b.last))
	for i, r := range b.last {
		rows[i] = sweepRowRef{Series: r.Series, X: r.X, Measures: r.Measures}
	}
	ref.Sweeps[b.name] = rows
}

// tracedRound runs the engine once with its registry attached, then the
// traced pass over the same points, which must return the same rows.
func (b *sweepBench) tracedRound(tr *tracer) (map[string]float64, ops) {
	reg := obsv.NewRegistry()
	res, engineWall, err := b.runEngine(reg)
	var o ops
	if err != nil {
		logf("%s: %v", b.name, err)
		o = ops{attempted: len(b.points), failed: len(b.points)}
	} else {
		o = b.check(res.Rows)
	}

	m0 := tr.mark()
	t0 := time.Now()
	rows, st, err := tracedSweep(tr, b.points, b.workers)
	tracedWall := time.Since(t0)
	o.attempted += len(b.points)
	switch {
	case err != nil:
		logf("%s: traced pass: %v", b.name, err)
		o.failed += len(b.points)
	case res == nil || !sameRows(rows, res.Rows):
		logf("%s: traced pass rows differ from sweep.Run", b.name)
		o.failed += len(b.points)
	case st.maxResidual > residualBound:
		logf("%s: steady-state residual %.3g above %.3g", b.name, st.maxResidual, residualBound)
		o.failed += len(b.points)
	}

	m := sweepLayerMetrics(layerIndex(layerTable(tr.since(m0))), st)
	if res != nil {
		h := reg.Histogram(metricPointSeconds)
		hits, misses := float64(res.CacheHits), float64(res.CacheMisses)
		m["sweep.point_p50_ms"] = 1e3 * h.Quantile(0.5)
		m["sweep.point_max_ms"] = 1e3 * h.Max()
		m["sweep.cache_hit_ratio"] = ratio(hits, hits+misses)
		m["sweep.cache_misses"] = misses
		m["sweep.worker_busy_ratio"] = ratio(h.Sum(), float64(b.workers)*res.Elapsed.Seconds())
	}
	m["trace.overhead_ratio"] = ratio(tracedWall.Seconds(), engineWall.Seconds()) - 1
	return m, o
}

// sweepLayerMetrics turns one traced pass's layer table and counts into
// the per-layer metrics.
func sweepLayerMetrics(ls map[string]layer, st *passStats) map[string]float64 {
	solveS := ls["linalg.solve"].SelfS
	skelS := ls["core.skeleton"].SelfS
	iterative := float64(st.solves - st.gthSolves)
	return map[string]float64{
		"approx.evals_per_point":          ratio(float64(st.evals), float64(st.optPoints)),
		"core.skeleton_s":                 skelS,
		"core.skeletons":                  float64(st.skeletons),
		"core.states_per_s":               ratio(float64(st.skeletonStates), skelS),
		"ctmc.instantiate_s":              ls["ctmc.instantiate"].SelfS,
		"ctmc.nnz_mean":                   ratio(float64(st.nnz), float64(st.solves)),
		"linalg.solve_s":                  solveS,
		"linalg.solves":                   float64(st.solves),
		"linalg.sweeps_per_solve":         ratio(float64(st.sweeps), iterative),
		"linalg.gth_solves":               float64(st.gthSolves),
		"linalg.fallbacks":                float64(st.fallbacks),
		"linalg.max_residual":             st.maxResidual,
		"linalg.gflops_computed":          ratio(st.flops, solveS) / 1e9,
		"linalg.bytes_per_sweep_computed": ratio(st.sweepBytes, iterative),
		// Derived: core.analyze_chain solves the chain again before it
		// extracts the measures, so its time minus the separate solve's
		// is the measure extraction.
		"core.measures_s": max(ls["core.analyze_chain"].SelfS-solveS, 0),
	}
}
