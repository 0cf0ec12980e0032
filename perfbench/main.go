// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload through the public entry points users hit — sweep.Run
// (behind tagseval and pepad jobs) and sim.RunReplications (behind
// tagssim -replications) — checks every output, and prints the
// end-to-end metrics; with -trace 1 it instead rebuilds the same work
// from the layers' public functions, records a span around each call
// and prints the per-layer metrics. See README.md.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload scan-cold --seed 3 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric names one reported figure and its unit. The lists below are
// the contract BENCHMARK.json declares; main_test.go keeps them equal.
type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run (-trace 0).
var endToEnd = []metric{
	{"items_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (-trace 1). Every workload
// reports all of them; a layer the workload does not reach reads 0.
var perLayer = []metric{
	{"sweep.point_p50_ms", "ms"},
	{"sweep.point_max_ms", "ms"},
	{"sweep.cache_hit_ratio", "ratio"},
	{"sweep.cache_misses", "count"},
	{"sweep.worker_busy_ratio", "ratio"},
	{"approx.evals_per_point", "count"},
	{"core.skeleton_s", "s"},
	{"core.skeletons", "count"},
	{"core.states_per_s", "1/s"},
	{"ctmc.instantiate_s", "s"},
	{"ctmc.nnz_mean", "count"},
	{"linalg.solve_s", "s"},
	{"linalg.solves", "count"},
	{"linalg.sweeps_per_solve", "count"},
	{"linalg.gth_solves", "count"},
	{"linalg.fallbacks", "count"},
	{"linalg.max_residual", "abs"},
	{"linalg.gflops_computed", "GFLOP/s"},
	{"linalg.bytes_per_sweep_computed", "bytes"},
	{"core.measures_s", "s"},
	{"workload.gen_s", "s"},
	{"workload.parse_s", "s"},
	{"sim.run_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"policies.route_calls", "count"},
	{"policies.route_ns", "ns"},
	{"sim.rep_busy_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// ops counts operations (sweep points or replications) and those that
// returned an error or failed a correctness check.
type ops struct{ attempted, failed int }

func (o *ops) add(p ops) { o.attempted += p.attempted; o.failed += p.failed }

// bench is one workload: a set-up that builds its inputs from the seed,
// an untraced batch timed for the end-to-end metrics, and a traced round
// that yields the per-layer metrics.
type bench interface {
	// setup builds the inputs; tr, when non-nil, records its spans.
	setup(seed uint64, ref *reference, tr *tracer) error
	// batch runs one untraced unit of work (a whole sweep or a whole
	// replication batch) and reports the work items it completed.
	batch() (items int, elapsed time.Duration, o ops)
	// tracedRound runs one untraced engine pass and one traced pass and
	// returns the per-layer metrics of the pair.
	tracedRound(tr *tracer) (map[string]float64, ops)
	// reference stores the outputs of the last batch in ref.
	reference(ref *reference)
}

// newBench returns the named workload with its full-size inputs.
func newBench(name string) (bench, error) {
	switch name {
	case "fig12-optt":
		return &sweepBench{name: name, workers: 1, build: fig12Spec}, nil
	case "scan-cold":
		return &sweepBench{name: name, workers: 2, build: scanSpec}, nil
	case "sim-cluster":
		return &simBench{jobs: simJobs, reps: simReps, nodes: simNodes, workers: 2}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want fig12-optt, scan-cold or sim-cluster)", name)
	}
}

// An untraced run repeats the set-up at least minSetups times, and
// goes on while the set-ups have taken less than setupBudget in all, up
// to maxSetups; it reports the median. A cheap set-up is thus repeated
// often enough for its median to settle.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = time.Second
)

// output is the last line of standard output.
type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fig12-optt | scan-cold | sim-cluster")
	seed := fs.Uint64("seed", refSeed, "workload seed")
	seconds := fs.Float64("seconds", 30, "measured seconds; batches start until this much time has passed")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for the span file of a traced run")
	writeRef := fs.Bool("write-reference", false, "run every workload once at the reference seed and rewrite "+referencePath)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeRef {
		if err := writeReference(referencePath, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if _, err := newBench(*name); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var (
		out *output
		err error
	)
	if *traceFlag == 1 {
		out, err = runTraced(*name, *seed, budget, *outDir, stdout)
	} else {
		out, err = runUntraced(*name, *seed, budget, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !out.Correct {
		return 1
	}
	return 0
}

// setupOnce builds a fresh workload and times its set-up, which
// includes loading the reference outputs.
func setupOnce(name string, seed uint64, tr *tracer) (bench, time.Duration, error) {
	t0 := time.Now()
	b, err := newBench(name)
	if err != nil {
		return nil, 0, err
	}
	ref, err := loadReference(referencePath)
	if err != nil {
		return nil, 0, err
	}
	if err := b.setup(seed, ref, tr); err != nil {
		return nil, 0, err
	}
	return b, time.Since(t0), nil
}

// runUntraced measures the end-to-end metrics: the median set-up time
// over repeated set-ups, then a closed loop of batches, one after
// another, until the budget has passed.
func runUntraced(name string, seed uint64, budget time.Duration, w io.Writer) (*output, error) {
	var (
		b      bench
		setups []float64
		spent  time.Duration
	)
	for len(setups) < minSetups || (len(setups) < maxSetups && spent < setupBudget) {
		nb, d, err := setupOnce(name, seed, nil)
		if err != nil {
			return nil, err
		}
		b = nb
		spent += d
		setups = append(setups, d.Seconds())
	}
	fmt.Fprintf(w, "perfbench %s seed=%d budget=%v untraced\n", name, seed, budget)
	var (
		rates []float64
		total ops
	)
	start := time.Now()
	for len(rates) == 0 || time.Since(start) < budget {
		items, d, o := b.batch()
		total.add(o)
		rate := ratio(float64(items), d.Seconds())
		rates = append(rates, rate)
		fmt.Fprintf(w, "batch %d: %d items in %.3f s (%.4g items/s), %d of %d operations failed\n",
			len(rates), items, d.Seconds(), rate, o.failed, o.attempted)
	}
	unit := "points"
	if name == "sim-cluster" {
		unit = "jobs"
	}
	m := map[string]float64{
		"items_per_s": median(rates),
		"setup_s":     median(setups),
		"peak_rss_mb": peakRSSMB(),
	}
	fmt.Fprintf(w, "items_per_s  %.6g 1/s  (%s_per_s, median of %d batches)\n", m["items_per_s"], unit, len(rates))
	fmt.Fprintf(w, "setup_s      %.6g s  (median of %d set-ups)\n", m["setup_s"], len(setups))
	fmt.Fprintf(w, "peak_rss_mb  %.6g MB\n", m["peak_rss_mb"])
	fmt.Fprintf(w, "fail_ratio   %.6g  (%d of %d operations)\n", ratio(float64(total.failed), float64(total.attempted)), total.failed, total.attempted)
	return result(endToEnd, m, total), nil
}

// runTraced measures the per-layer metrics: traced rounds until the
// budget has passed, reporting each metric's median over the rounds,
// and writes every span to a file under outDir.
func runTraced(name string, seed uint64, budget time.Duration, outDir string, w io.Writer) (*output, error) {
	tr := newTracer()
	b, _, err := setupOnce(name, seed, tr)
	if err != nil {
		return nil, err
	}
	mach := machineFacts()
	fmt.Fprintf(w, "perfbench %s seed=%d budget=%v traced\n", name, seed, budget)
	fmt.Fprintf(w, "machine: %s\n", mach)
	var (
		rounds []map[string]float64
		total  ops
	)
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < budget {
		m, o := b.tracedRound(tr)
		total.add(o)
		rounds = append(rounds, m)
	}
	m := make(map[string]float64, len(perLayer))
	for _, pm := range perLayer {
		var vs []float64
		for _, r := range rounds {
			vs = append(vs, r[pm.name])
		}
		m[pm.name] = median(vs)
	}
	layers := layerTable(tr.spans)
	writeLayerTable(w, layers)
	writeShares(w, layers)
	note := "timing every Route call"
	if name != "sim-cluster" {
		note = "including the extra solve per chain"
	}
	fmt.Fprintf(w, "tracing overhead %.1f%% of the untraced pass, %s (median of %d rounds)\n",
		100*m["trace.overhead_ratio"], note, len(rounds))
	for _, pm := range perLayer {
		fmt.Fprintf(w, "%-34s %.6g %s\n", pm.name, m[pm.name], pm.unit)
	}
	fmt.Fprintf(w, "fail_ratio %.6g  (%d of %d operations)\n", ratio(float64(total.failed), float64(total.attempted)), total.failed, total.attempted)
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := writeSpans(path, spanFile{Workload: name, Seed: seed, Machine: mach, Layers: layers, Spans: tr.spans}); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "spans written to %s\n", path)
	return result(perLayer, m, total), nil
}

// result assembles the last output line.
func result(list []metric, m map[string]float64, total ops) *output {
	out := &output{
		Correct:   total.failed == 0,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics:   make(map[string]valueUnit, len(list)),
	}
	for _, pm := range list {
		out.Metrics[pm.name] = valueUnit{Value: m[pm.name], Unit: pm.unit}
	}
	return out
}

// writeReference runs every workload once at the reference seed and
// writes their outputs as the new reference.
func writeReference(path string, w io.Writer) error {
	ref := &reference{Seed: refSeed, Sweeps: map[string][]sweepRowRef{}}
	for _, name := range []string{"fig12-optt", "scan-cold", "sim-cluster"} {
		b, err := newBench(name)
		if err != nil {
			return err
		}
		if err := b.setup(refSeed, nil, nil); err != nil {
			return err
		}
		if _, _, o := b.batch(); o.failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", name, o.failed, o.attempted)
		}
		b.reference(ref)
		fmt.Fprintf(w, "%s: reference recorded\n", name)
	}
	return saveReference(path, ref)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is not positive (nothing was
// counted or timed).
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// errMismatch marks an output that differs from what it must equal.
var errMismatch = errors.New("output mismatch")
