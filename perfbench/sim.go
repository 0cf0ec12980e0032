package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"pepatags/internal/dist"
	"pepatags/internal/obsv"
	"pepatags/internal/policies"
	"pepatags/internal/sim"
	"pepatags/internal/workload"
)

// Sim-cluster size: 8 replications of a 200k-job trace on 1000 nodes.
const (
	simJobs  = 200_000
	simReps  = 8
	simNodes = 1000
	simLoad  = 0.7 // offered load per node
	simCap   = 10  // per-node capacity, as tagssim's default
)

// simBench replays a bounded-Pareto trace on a homogeneous cluster with
// power-of-2-choices routing, as tagssim -trace -policy pod2
// -replications does.
type simBench struct {
	jobs, reps, nodes, workers int

	seed  uint64
	trace []workload.Job
	ref   *simOutcome // non-nil when the seed is the reference seed
	first *simOutcome // outcome of the first batch; later ones must repeat it
	last  *simOutcome
	// genS and parseS are the workload layer's times in a traced set-up.
	genS, parseS float64
}

// setup generates the trace from the seed, writes it in sim-trace/v1
// form and parses it back, as a tagssim -gen-trace / -trace pair does
// (in memory here, so disk speed does not enter set-up time).
func (b *simBench) setup(seed uint64, ref *reference, tr *tracer) error {
	b.seed = seed
	rng := rand.New(rand.NewPCG(seed, seed^0x7ace))
	// Unit mean size, heavy-tailed like tagssim -gen-kind pareto: α 1.1
	// and p/k = 1e5, bounds scaled to the mean.
	bp := dist.NewBoundedPareto(1, 1e5, 1.1)
	scale := 1 / bp.Mean()
	lambda := simLoad * float64(b.nodes)

	var jobs []workload.Job
	t0 := tr.now()
	_ = tr.do("workload.gen", 0, -1, func(int) error {
		jobs = workload.BoundedParetoTrace(rng, b.jobs, lambda, scale, 1e5*scale, 1.1)
		return nil
	})
	t1 := tr.now()
	var buf bytes.Buffer
	if err := tr.do("workload.write", 0, -1, func(int) error { return workload.WriteTrace(&buf, jobs) }); err != nil {
		return err
	}
	t2 := tr.now()
	var parsed *workload.Trace
	err := tr.do("workload.parse", 0, -1, func(int) error {
		var err error
		parsed, err = workload.ParseTrace(&buf)
		return err
	})
	if err != nil {
		return err
	}
	t3 := tr.now()
	b.genS = time.Duration(t1 - t0).Seconds()
	b.parseS = time.Duration(t3 - t2).Seconds()
	if len(parsed.Jobs) != len(jobs) {
		return fmt.Errorf("trace round trip: %d jobs written, %d parsed", len(jobs), len(parsed.Jobs))
	}
	for i, j := range parsed.Jobs {
		if j.ID != jobs[i].ID || !sameFloat(j.Arrival, jobs[i].Arrival) || !sameFloat(j.Size, jobs[i].Size) {
			return fmt.Errorf("trace round trip: job %d parsed as %+v, written as %+v", i, j, jobs[i])
		}
	}
	b.trace = parsed.Jobs
	if ref != nil && seed == ref.Seed {
		if ref.Sim == nil {
			return fmt.Errorf("reference has no sim-cluster outcome")
		}
		b.ref = ref.Sim
	}
	return nil
}

// config is the replication batch; hooks add the traced pass's probes.
func (b *simBench) config() sim.ReplicationConfig {
	nodes := make([]sim.NodeConfig, b.nodes)
	for i := range nodes {
		nodes[i] = sim.NodeConfig{Capacity: simCap}
	}
	return sim.ReplicationConfig{
		Base:      sim.Config{Nodes: nodes, Seed: b.seed},
		NewSource: sim.TraceSourceFactory(b.trace),
		NewPolicy: func(int) sim.Policy { return policies.NewPowerOfD(2) },
		Reps:      b.reps,
		Workers:   b.workers,
	}
}

func outcomeOf(res *sim.ReplicationResult) *simOutcome {
	o := &simOutcome{Response: res.Response, Slowdown: res.Slowdown, Loss: res.Loss, Events: res.Events}
	for _, m := range res.Metrics {
		o.Completed += m.Completed
		o.Dropped += m.Dropped
		o.Killed += m.Killed
	}
	return o
}

func (b *simBench) batch() (int, time.Duration, ops) {
	t0 := time.Now()
	res, err := sim.RunReplications(b.config())
	d := time.Since(t0)
	o := b.check(res, err)
	return b.jobs * b.reps, d, o
}

// check counts the replications that fail a check: each must account
// for every job, the batch must repeat the first batch bit for bit, and
// at the reference seed it must equal the reference.
func (b *simBench) check(res *sim.ReplicationResult, err error) ops {
	o := ops{attempted: b.reps}
	if err != nil {
		logf("sim-cluster: %v", err)
		o.failed = b.reps
		return o
	}
	for rep, m := range res.Metrics {
		if got := m.Completed + m.Dropped + m.Killed; got != len(b.trace) {
			logf("sim-cluster: replication %d accounts for %d of %d jobs", rep, got, len(b.trace))
			o.failed++
		}
	}
	out := outcomeOf(res)
	b.last = out
	if b.first == nil {
		b.first = out
	}
	if !sameOutcome(out, b.first) || (b.ref != nil && !sameOutcome(out, b.ref)) {
		logf("sim-cluster: pooled outcome %+v differs from the first batch or the reference", *out)
		o.failed = b.reps
	}
	return o
}

func (b *simBench) reference(ref *reference) { ref.Sim = b.last }

// timedPolicy times every Route call of one replication's policy.
type timedPolicy struct {
	inner sim.Policy
	calls int
	busy  time.Duration
}

func (p *timedPolicy) Route(s *sim.System, j *sim.Job) int {
	t0 := time.Now()
	n := p.inner.Route(s, j)
	p.busy += time.Since(t0)
	p.calls++
	return n
}

func (p *timedPolicy) String() string { return p.inner.String() }

// tracedRound runs one untraced batch, counting allocations, then one
// traced batch whose replication spans run from the replication's
// NewSource call to its completion report.
func (b *simBench) tracedRound(tr *tracer) (map[string]float64, ops) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	res, err := sim.RunReplications(b.config())
	engineWall := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	o := b.check(res, err)

	rc := b.config()
	starts := make([]int64, b.reps)
	routers := make([]*timedPolicy, b.reps)
	var ends []int64
	rc.NewSource = func(rep int) workload.Source {
		starts[rep] = tr.now()
		return &workload.Trace{Jobs: b.trace}
	}
	rc.NewPolicy = func(rep int) sim.Policy {
		routers[rep] = &timedPolicy{inner: policies.NewPowerOfD(2)}
		return routers[rep]
	}
	// Progress and the sim.replication event fire one after the other
	// under the batch mutex, so the k-th Progress call ends the
	// replication the k-th event names.
	rc.Progress = func(obsv.Progress) { ends = append(ends, tr.now()) }
	log := obsv.NewEventLog(obsv.EventLogConfig{RecorderSize: 2 * b.reps})
	rc.Events = log

	var traced *sim.ReplicationResult
	t0 = time.Now()
	err = tr.do("sim.batch", 0, -1, func(batch int) error {
		var err error
		traced, err = sim.RunReplications(rc)
		if err != nil {
			return err
		}
		k := 0
		for _, ev := range log.Recorder() {
			if ev.Kind != "sim.replication" || k >= len(ends) {
				continue
			}
			rep := int(ev.Fields["rep"])
			s := span{ID: tr.id(), Parent: batch, Name: "sim.replication", Point: rep, Start: starts[rep], End: ends[k]}
			tr.add(s)
			tr.add(span{ID: tr.id(), Parent: s.ID, Name: "policies.route", Point: rep,
				Start: s.Start, End: s.Start + int64(routers[rep].busy), Calls: routers[rep].calls})
			k++
		}
		if k != b.reps {
			return fmt.Errorf("matched %d of %d replication spans", k, b.reps)
		}
		return nil
	})
	tracedWall := time.Since(t0)
	o.add(b.check(traced, err))

	m := map[string]float64{
		"workload.gen_s":       b.genS,
		"workload.parse_s":     b.parseS,
		"trace.overhead_ratio": ratio(tracedWall.Seconds(), engineWall.Seconds()) - 1,
	}
	if res != nil {
		m["sim.allocs_per_event"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(res.Events))
	}
	if err == nil {
		// The summed replication time needs no pairing of ends with
		// starts: it is the sum of the ends minus the sum of the starts.
		var repTime, routeTime time.Duration
		calls := 0
		for rep := range routers {
			repTime += time.Duration(ends[rep] - starts[rep])
			routeTime += routers[rep].busy
			calls += routers[rep].calls
		}
		m["sim.run_s"] = (repTime - routeTime).Seconds()
		m["sim.events"] = float64(traced.Events)
		m["sim.ns_per_event"] = ratio(float64(repTime.Nanoseconds()), float64(traced.Events))
		m["policies.route_calls"] = float64(calls)
		m["policies.route_ns"] = ratio(float64(routeTime.Nanoseconds()), float64(calls))
		m["sim.rep_busy_ratio"] = ratio(repTime.Seconds(), float64(b.workers)*tracedWall.Seconds())
	}
	return m, o
}
