package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Point  int    `json:"point"` // sweep point seq or replication number; -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Calls > 0 marks an aggregate span standing for that many calls
	// too short to record one by one; its duration is their summed time
	// and it is placed at its parent's start.
	Calls int `json:"calls,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns the time since the tracer started (0 for a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// id reserves a span id.
func (t *tracer) id() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do runs f inside a span; f receives the span's id so it can parent
// the spans of the calls it makes.
func (t *tracer) do(name string, parent, point int, f func(id int) error) error {
	if t == nil {
		return f(0)
	}
	s := span{ID: t.id(), Parent: parent, Name: name, Point: point, Start: t.now()}
	err := f(s.ID)
	s.End = t.now()
	t.add(s)
	return err
}

// mark returns the number of spans recorded so far; spans[mark:] are
// the ones recorded after it.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns a copy of the spans recorded after mark m.
func (t *tracer) since(m int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[m:]...)
}

// layer sums the spans of one name: their count, total duration and
// self time, which is a span's duration minus the time its child spans
// cover.
type layer struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// layerTable aggregates spans by name. A span's children may overlap
// (a replication batch runs its replications on several workers), so
// the time they cover is the union of their intervals.
func layerTable(spans []span) []layer {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := make(map[string]*layer)
	for _, s := range spans {
		l := by[s.Name]
		if l == nil {
			l = &layer{Name: s.Name}
			by[s.Name] = l
		}
		l.Spans++
		l.Calls += max(s.Calls, 1)
		l.TotalS += s.dur().Seconds()
		l.SelfS += (s.dur() - covered(children[s.ID])).Seconds()
	}
	out := make([]layer, 0, len(by))
	for _, l := range by {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	for i, s := range spans {
		switch {
		case i == 0 || s.Start >= end:
			total += s.End - s.Start
			end = s.End
		case s.End > end:
			total += s.End - end
			end = s.End
		}
	}
	return time.Duration(total)
}

// layerIndex maps layer names to their rows.
func layerIndex(ls []layer) map[string]layer {
	m := make(map[string]layer, len(ls))
	for _, l := range ls {
		m[l.Name] = l
	}
	return m
}

func writeLayerTable(w io.Writer, ls []layer) {
	fmt.Fprintf(w, "%-22s %9s %10s %12s %12s\n", "span", "spans", "calls", "total_s", "self_s")
	for _, l := range ls {
		fmt.Fprintf(w, "%-22s %9d %10d %12.6f %12.6f\n", l.Name, l.Spans, l.Calls, l.TotalS, l.SelfS)
	}
}

// writeShares prints each sweep layer's self time as a share of the
// point time the untraced engine would spend: the points' total time
// minus the extra solve and the residual check that only the traced
// pass makes.
func writeShares(w io.Writer, ls []layer) {
	li := layerIndex(ls)
	work := li["sweep.point"].TotalS - li["linalg.solve"].TotalS - li["check.residual"].TotalS
	if work <= 0 {
		return
	}
	fmt.Fprintf(w, "share of engine point time %.3f s:", work)
	for _, name := range []string{"core.skeleton", "ctmc.instantiate", "linalg.solve", "core.baseline"} {
		fmt.Fprintf(w, " %s %.2f%%,", name, 100*li[name].SelfS/work)
	}
	measures := li["core.analyze_chain"].SelfS - li["linalg.solve"].SelfS
	fmt.Fprintf(w, " core.measures (derived) %.2f%%\n", 100*measures/work)
}

// spanFile is what a traced run writes when it ends.
type spanFile struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Machine  machine  `json:"machine"`
	Layers   []layer  `json:"layers"`
	Spans    []span   `json:"spans"`
	Notes    []string `json:"notes"`
}

func writeSpans(path string, f spanFile) error {
	f.Notes = []string{
		"times are nanoseconds since the run started; self time = duration - time covered by child spans",
		"a span with calls > 0 aggregates that many calls and sits at its parent's start",
		"linalg.solve is an extra solve the traced pass makes to split solve from measures; core.analyze_chain solves again inside",
		"linalg flop and byte figures are computed from matrix sizes and sweep counts, not measured",
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
