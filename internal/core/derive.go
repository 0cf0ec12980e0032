package core

import "pepatags/internal/ctmc"

// State derivation. Every direct builder in this package explores its
// model's reachable states breadth-first through one deriver, keyed on
// the builder's typed state: a comparable struct, so interning is a map
// lookup on the state itself, with no label formatted per edge. Labels
// are rendered once per state when the structure is finished, and only
// for printing; measures read the population table the deriver records
// alongside them (see ctmc.Structure), and callers that need the full
// typed state take the deriver's state slice, indexed like the chain.

// modelState is a builder's typed state.
type modelState interface {
	comparable
	// label renders the state's name for printing.
	label() string
	// population appends the number of jobs at each node to dst (none
	// for chains whose measures are not node populations).
	population(dst []int32) []int32
}

// deriver explores a model's reachable state space breadth-first. It
// interns each state on first sight under the next index, so the state
// slice doubles as the BFS queue: explore expands states in index
// order, and every chain a builder derives numbers its states in order
// of discovery.
type deriver[S modelState] struct {
	states []S
	index  map[S]int
	from   int // index of the state being expanded
}

func newDeriver[S modelState]() deriver[S] {
	return deriver[S]{index: make(map[S]int)}
}

// visit interns s and returns its index.
func (d *deriver[S]) visit(s S) int {
	if i, ok := d.index[s]; ok {
		return i
	}
	i := len(d.states)
	d.states = append(d.states, s)
	d.index[s] = i
	return i
}

// explore calls expand on every visited state in index order,
// including the states visited while exploring.
func (d *deriver[S]) explore(expand func(s S)) {
	for d.from = 0; d.from < len(d.states); d.from++ {
		expand(d.states[d.from])
	}
}

// structure renders each state's label and records its populations.
func (d *deriver[S]) structure() *ctmc.Structure {
	labels := make([]string, len(d.states))
	var pops []int32
	for i, s := range d.states {
		labels[i] = s.label()
		pops = s.population(pops)
	}
	nodes := 0
	if len(d.states) > 0 {
		nodes = len(pops) / len(d.states)
	}
	return ctmc.NewStructure(labels, nodes, pops)
}

// rateDeriver records numeric transitions, for the builders whose chain
// is derived afresh at every parameter point.
type rateDeriver[S modelState] struct {
	deriver[S]
	trans []ctmc.Transition
}

func newRateDeriver[S modelState](initial ...S) *rateDeriver[S] {
	d := &rateDeriver[S]{deriver: newDeriver[S]()}
	for _, s := range initial {
		d.visit(s)
	}
	return d
}

// emit records a transition from the state being expanded to `to`. A
// rate that is not positive (a branch probability or an arrival phase
// rate of exactly 0) is no transition, and `to` is not reached by it.
func (d *rateDeriver[S]) emit(to S, rate float64, action string) {
	if rate <= 0 {
		return
	}
	d.trans = append(d.trans, ctmc.Transition{From: d.from, To: d.visit(to), Rate: rate, Action: action})
}

// chain finishes the derivation.
func (d *rateDeriver[S]) chain() *ctmc.Chain {
	return d.structure().Chain(d.trans)
}
