package ctmc

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pepatags/internal/linalg"
	"pepatags/internal/numeric"
)

// Transition is one labelled transition of the chain.
type Transition struct {
	From, To int
	Rate     float64
	Action   string
}

// Chain is an immutable labelled CTMC: a Structure (the state table,
// possibly shared with sibling chains) plus a transition list. The
// zero Chain is the empty chain.
type Chain struct {
	st          *Structure
	transitions []Transition
	gen         *linalg.CSR // cached generator
}

// NewChain builds a chain directly from a dense label slice (state i
// is labelled labels[i]) and a prebuilt transition list. Both slices
// are retained, not copied — this is the streaming-assembly
// counterpart to Builder for producers that number states themselves.
// Transitions are validated like Builder.Transition: positive finite
// rates, endpoints in range. Labels are assumed unique; the index map
// is only materialised if StateIndex is ever called.
func NewChain(labels []string, transitions []Transition) *Chain {
	return NewStructure(labels, 0, nil).Chain(transitions)
}

// checkTransition panics unless t has a positive finite rate and both
// endpoints among n states.
func checkTransition(t Transition, n int) {
	if t.Rate <= 0 || math.IsNaN(t.Rate) || math.IsInf(t.Rate, 0) {
		panic(fmt.Sprintf("ctmc: invalid rate %g for action %q", t.Rate, t.Action))
	}
	if t.From < 0 || t.From >= n || t.To < 0 || t.To >= n {
		panic(fmt.Sprintf("ctmc: transition (%d -> %d) out of range", t.From, t.To))
	}
}

// Builder incrementally constructs a Chain.
type Builder struct {
	labels      []string
	index       map[string]int
	transitions []Transition
}

// NewBuilder returns an empty chain builder.
func NewBuilder() *Builder {
	return &Builder{index: make(map[string]int)}
}

// State interns the state with the given label and returns its index.
// Repeated calls with the same label return the same index.
func (b *Builder) State(label string) int {
	if i, ok := b.index[label]; ok {
		return i
	}
	i := len(b.labels)
	b.labels = append(b.labels, label)
	b.index[label] = i
	return i
}

// HasState reports whether the label has been interned.
func (b *Builder) HasState(label string) bool {
	_, ok := b.index[label]
	return ok
}

// NumStates returns the number of interned states so far.
func (b *Builder) NumStates() int { return len(b.labels) }

// Transition records a transition. Rates must be positive and the
// states must already be interned (indices in range). Self-loops are
// permitted at build time and dropped when the generator is formed
// (they do not affect a CTMC's stationary behaviour).
func (b *Builder) Transition(from, to int, rate float64, action string) {
	t := Transition{From: from, To: to, Rate: rate, Action: action}
	checkTransition(t, len(b.labels))
	b.transitions = append(b.transitions, t)
}

// Build finalises the chain.
func (b *Builder) Build() *Chain {
	st := &Structure{labels: make([]string, len(b.labels)), index: make(map[string]int, len(b.index))}
	copy(st.labels, b.labels)
	for k, v := range b.index {
		st.index[k] = v
	}
	trans := make([]Transition, len(b.transitions))
	copy(trans, b.transitions)
	return &Chain{st: st, transitions: trans}
}

// NumStates returns the number of states.
func (c *Chain) NumStates() int {
	if c.st == nil {
		return 0
	}
	return len(c.st.labels)
}

// NumTransitions returns the number of recorded transitions (including
// self-loops).
func (c *Chain) NumTransitions() int { return len(c.transitions) }

// Label returns the label of state i.
func (c *Chain) Label(i int) string { return c.st.labels[i] }

// StateIndex returns the index of the labelled state.
func (c *Chain) StateIndex(label string) (int, bool) {
	if c.st == nil {
		return 0, false
	}
	return c.st.Index(label)
}

// Nodes returns how many node populations the chain's structure records
// per state: 0 when its producer recorded none.
func (c *Chain) Nodes() int {
	if c.st == nil {
		return 0
	}
	return c.st.nodes
}

// Population returns the number of jobs at node j in state i, read from
// the population table of the chain's structure.
func (c *Chain) Population(i, j int) int { return int(c.st.pops[i*c.st.nodes+j]) }

// Transitions returns the transition list (shared slice; do not modify).
func (c *Chain) Transitions() []Transition { return c.transitions }

// Generator returns the (cached) generator matrix Q in CSR form, with
// self-loops removed and diagonals set to the negated row sums.
func (c *Chain) Generator() *linalg.CSR {
	if c.gen != nil {
		return c.gen
	}
	n := c.NumStates()
	coo := linalg.NewCOO(n, n)
	out := make([]float64, n)
	for _, t := range c.transitions {
		if t.From == t.To {
			continue
		}
		coo.Add(t.From, t.To, t.Rate)
		out[t.From] += t.Rate
	}
	for i, o := range out {
		if o > 0 {
			coo.Add(i, i, -o)
		}
	}
	c.gen = coo.ToCSR()
	return c.gen
}

// SteadyState solves pi Q = 0, sum(pi) = 1 with the automatic solver
// cascade of SteadyStateAuto and default options.
func (c *Chain) SteadyState() ([]float64, error) {
	return c.SteadyStateAuto(linalg.Options{})
}

// SteadyStateAuto is the chain's one solve entry point: GTH on chains
// up to 400 states, then Gauss-Seidel, then power iteration. It threads
// opts through the iterative stages, so workers, stats and metrics
// instrumentation survive the automatic choice; the GTH stage is
// direct and reports nothing through opts. A generator with a
// non-finite entry (rates whose row sums overflow) or a solution that
// is not finite is an error, not a converged result.
func (c *Chain) SteadyStateAuto(opts linalg.Options) ([]float64, error) {
	if c.NumStates() == 0 {
		return nil, errors.New("ctmc: empty chain")
	}
	q := c.Generator()
	for _, v := range q.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("ctmc: generator has non-finite entry %g (rates overflow)", v)
		}
	}
	pi, err := steadyStateCascade(q, opts)
	if err != nil {
		return nil, err
	}
	for i, p := range pi {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("ctmc: stationary probability of state %d is %g", i, p)
		}
	}
	return pi, nil
}

func steadyStateCascade(q *linalg.CSR, opts linalg.Options) ([]float64, error) {
	const denseCutoff = 400
	if q.Rows <= denseCutoff {
		if pi, err := linalg.SteadyStateGTH(q.ToDense()); err == nil {
			return pi, nil
		}
	}
	if pi, err := linalg.SteadyStateGaussSeidel(q, opts); err == nil {
		return pi, nil
	}
	return linalg.SteadyStatePower(q, opts)
}

// ActionThroughput returns the steady-state rate at which transitions
// labelled action occur: sum over transitions pi[from] * rate.
// Self-loop transitions count (a dropped job is a real event even
// though the state does not change).
func (c *Chain) ActionThroughput(pi []float64, action string) float64 {
	var acc numeric.Accumulator
	for _, t := range c.transitions {
		if t.Action == action {
			acc.Add(pi[t.From] * t.Rate)
		}
	}
	return acc.Sum()
}

// Actions returns the sorted set of action labels appearing in the
// chain.
func (c *Chain) Actions() []string {
	set := make(map[string]struct{})
	for _, t := range c.transitions {
		set[t.Action] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Expectation returns sum_i pi[i] * f(i), e.g. the mean queue length
// when f extracts the population of state i.
func (c *Chain) Expectation(pi []float64, f func(state int) float64) float64 {
	var acc numeric.Accumulator
	for i := range pi {
		if v := f(i); v != 0 { //vet:allow floatcmp: skip structural zeros of the reward function
			acc.Add(pi[i] * v)
		}
	}
	return acc.Sum()
}

// Probability returns the stationary probability of the predicate.
func (c *Chain) Probability(pi []float64, pred func(state int) bool) float64 {
	var acc numeric.Accumulator
	for i := range pi {
		if pred(i) {
			acc.Add(pi[i])
		}
	}
	return acc.Sum()
}

// CheckIrreducible verifies that every state is reachable from state 0
// and can reach state 0 (strong connectivity through state 0, which for
// our models implies irreducibility). It returns a descriptive error
// naming an offending state.
func (c *Chain) CheckIrreducible() error {
	n := c.NumStates()
	if n == 0 {
		return errors.New("ctmc: empty chain")
	}
	fwd := make([][]int, n)
	bwd := make([][]int, n)
	for _, t := range c.transitions {
		if t.From != t.To {
			fwd[t.From] = append(fwd[t.From], t.To)
			bwd[t.To] = append(bwd[t.To], t.From)
		}
	}
	reach := func(adj [][]int) []bool {
		seen := make([]bool, n)
		stack := []int{0}
		seen[0] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		return seen
	}
	f, bk := reach(fwd), reach(bwd)
	for i := 0; i < n; i++ {
		if !f[i] {
			return fmt.Errorf("ctmc: state %d (%s) unreachable from initial state", i, c.Label(i))
		}
		if !bk[i] {
			return fmt.Errorf("ctmc: state %d (%s) cannot return to initial state", i, c.Label(i))
		}
	}
	return nil
}
