package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"pepatags/internal/stats"
	"pepatags/internal/sweep"
)

// refSeed is the seed the committed reference outputs were made with;
// referencePath is where they live, relative to the repository root the
// benchmark runs from.
const (
	refSeed       = 1
	referencePath = "perfbench/reference.json"
)

// Tolerances of the correctness checks.
const (
	// measureRTol is the relative tolerance of a sweep measure against
	// its reference value; measureATol is the absolute floor for
	// measures near zero, such as loss rates at light load.
	measureRTol = 1e-6
	measureATol = 1e-12
	// flowRTol bounds the flow-balance error |λ - (throughput + loss)|
	// relative to λ, and Little's law |W·throughput - L| relative to L.
	flowRTol = 1e-6
	// residualBound bounds max_j |(πQ)_j| of every steady-state solve
	// of a traced run.
	residualBound = 1e-8
)

// reference holds the outputs of every workload at refSeed.
type reference struct {
	Seed uint64 `json:"seed"`
	// Sweeps maps a sweep workload to its rows in point order.
	Sweeps map[string][]sweepRowRef `json:"sweeps"`
	// Sim is the pooled result of one sim-cluster batch.
	Sim *simOutcome `json:"sim"`
}

// sweepRowRef is one reference row: the sweep.Row fields that identify
// the point plus its measures.
type sweepRowRef struct {
	Series   string             `json:"series"`
	X        float64            `json:"x"`
	Measures map[string]float64 `json:"measures"`
}

// simOutcome is what one replication batch returns that must repeat
// bit for bit at a given seed.
type simOutcome struct {
	Completed int          `json:"completed"`
	Dropped   int          `json:"dropped"`
	Killed    int          `json:"killed"`
	Response  stats.Pooled `json:"response"`
	Slowdown  stats.Pooled `json:"slowdown"`
	Loss      stats.Pooled `json:"loss"`
	Events    int          `json:"events"`
}

func loadReference(path string) (*reference, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", path, err)
	}
	return &ref, nil
}

func saveReference(path string, ref *reference) error {
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checkRow checks one sweep row against its point and, when ref is
// non-nil, against the reference row. State counts depend only on the
// model shape, so they must match the reference at any seed; t_opt and
// the measures must match only when exact is set (the inputs equal the
// reference inputs). Every row must balance flow: each arriving job
// either completes or is lost.
func checkRow(seq int, p sweep.Point, got sweep.Row, ref *sweepRowRef, exact bool) error {
	if got.Seq != seq || got.Series != p.Series || !sameFloat(got.X, p.X) {
		return fmt.Errorf("row %d: got seq %d series %q x %g, want series %q x %g: %w",
			seq, got.Seq, got.Series, got.X, p.Series, p.X, errMismatch)
	}
	for k, v := range got.Measures {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("row %d: measure %s = %v", seq, k, v)
		}
	}
	m := got.Measures
	if d := math.Abs(p.Lambda - m["throughput"] - m["loss"]); d > flowRTol*p.Lambda {
		return fmt.Errorf("row %d: flow balance off by %.3g: lambda %g, throughput %g, loss %g",
			seq, d, p.Lambda, m["throughput"], m["loss"])
	}
	if d := math.Abs(m["W"]*m["throughput"] - m["L"]); d > flowRTol*m["L"]+measureATol {
		return fmt.Errorf("row %d: Little's law off by %.3g: W %g, throughput %g, L %g", seq, d, m["W"], m["throughput"], m["L"])
	}
	if m["util1"] < 0 || m["util1"] > 1 || m["util2"] < 0 || m["util2"] > 1 || m["L"] < 0 {
		return fmt.Errorf("row %d: utilisation or population out of range: %v", seq, m)
	}
	if ref == nil {
		return nil
	}
	if ref.Series != got.Series || !sameFloat(ref.X, got.X) {
		return fmt.Errorf("row %d: reference row is series %q x %g: %w", seq, ref.Series, ref.X, errMismatch)
	}
	if !sameFloat(m["states"], ref.Measures["states"]) {
		return fmt.Errorf("row %d: %g states, reference %g: %w", seq, m["states"], ref.Measures["states"], errMismatch)
	}
	if !exact {
		return nil
	}
	if len(m) != len(ref.Measures) {
		return fmt.Errorf("row %d: %d measures, reference %d: %w", seq, len(m), len(ref.Measures), errMismatch)
	}
	for k, want := range ref.Measures {
		v, ok := m[k]
		if !ok {
			return fmt.Errorf("row %d: measure %s missing: %w", seq, k, errMismatch)
		}
		if k == "t_opt" || k == "t_opt_eff" {
			if !sameFloat(v, want) {
				return fmt.Errorf("row %d: %s = %g, reference %g: %w", seq, k, v, want, errMismatch)
			}
			continue
		}
		if math.Abs(v-want) > measureRTol*math.Max(math.Abs(v), math.Abs(want))+measureATol {
			return fmt.Errorf("row %d: %s = %.12g, reference %.12g: %w", seq, k, v, want, errMismatch)
		}
	}
	return nil
}

// sameRows reports whether two row sets are bit-identical.
func sameRows(a, b []sweep.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Series != b[i].Series || !sameFloat(a[i].X, b[i].X) ||
			len(a[i].Measures) != len(b[i].Measures) {
			return false
		}
		for k, v := range a[i].Measures {
			w, ok := b[i].Measures[k]
			if !ok || !sameFloat(v, w) {
				return false
			}
		}
	}
	return true
}

// sameFloat compares bit patterns: the outputs checked with it must
// repeat exactly, not approximately.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// samePooled compares two pooled intervals bit for bit.
func samePooled(a, b stats.Pooled) bool {
	return a.Reps == b.Reps && sameFloat(a.Mean, b.Mean) && sameFloat(a.StdErr, b.StdErr) && sameFloat(a.HalfWidth, b.HalfWidth)
}

// sameOutcome compares two replication batch outcomes bit for bit.
func sameOutcome(a, b *simOutcome) bool {
	return a.Completed == b.Completed && a.Dropped == b.Dropped && a.Killed == b.Killed && a.Events == b.Events &&
		samePooled(a.Response, b.Response) && samePooled(a.Slowdown, b.Slowdown) && samePooled(a.Loss, b.Loss)
}
