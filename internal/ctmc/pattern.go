package ctmc

import (
	"fmt"
	"sort"
	"sync"

	"pepatags/internal/linalg"
)

// Structure is an immutable state table shared by sibling chains that
// have the same reachable state space but different rates — the
// product of instantiating one derived skeleton at many parameter
// points. It holds each state's label and, when the producer records
// them, its node populations (jobs per node), so measures read typed
// state straight from the table. Sharing the table makes chain
// instantiation O(transitions) instead of O(states) per point, which
// is what lets a cached sweep skip the derivation cost.
type Structure struct {
	labels []string
	nodes  int     // populations per state
	pops   []int32 // pops[i*nodes+j]: jobs at node j in state i

	indexOnce sync.Once
	index     map[string]int // label -> state, built on first Index
}

// NewStructure adopts the label table and the state-major population
// table (nodes entries per state; nodes 0 and pops nil when there is
// none). Labels must be unique. Both slices are retained and must not
// be modified afterwards.
func NewStructure(labels []string, nodes int, pops []int32) *Structure {
	if len(pops) != nodes*len(labels) {
		panic(fmt.Sprintf("ctmc: %d populations for %d states of %d nodes", len(pops), len(labels), nodes))
	}
	return &Structure{labels: labels, nodes: nodes, pops: pops}
}

// NumStates returns the number of states in the table.
func (s *Structure) NumStates() int { return len(s.labels) }

// Label returns the label of state i.
func (s *Structure) Label(i int) string { return s.labels[i] }

// Index returns the index of the labelled state. The label map is
// materialised on the first call; Builder-built structures arrive with
// it populated.
func (s *Structure) Index(label string) (int, bool) {
	s.indexOnce.Do(func() {
		if s.index != nil {
			return
		}
		s.index = make(map[string]int, len(s.labels))
		for i, l := range s.labels {
			s.index[l] = i
		}
	})
	i, ok := s.index[label]
	return i, ok
}

// Chain builds a chain over this structure from a transition list. The
// transitions are validated like Builder.Transition (positive rates,
// indices in range); the state table is shared, not copied, so sibling
// chains are cheap. The transition slice is retained.
func (s *Structure) Chain(transitions []Transition) *Chain {
	for _, t := range transitions {
		checkTransition(t, len(s.labels))
	}
	return &Chain{st: s, transitions: transitions}
}

// GenPattern captures how Generator assembles a chain's CSR matrix: the
// sparsity pattern (row pointers and column indices) plus, for every
// coordinate entry the assembly would create, the value slot it
// accumulates into and the source it reads (a transition's rate or a
// row's negated outflow). Sibling chains that share the transition
// structure — the same states and the same (from, to) pairs in the same
// order, as produced by instantiating one skeleton at different rates —
// can then fill a fresh value array in O(nnz) instead of re-sorting the
// coordinate list per point.
//
// Apply performs the accumulation in exactly the order linalg.COO.ToCSR
// visits the sorted entries, so the generator it produces is
// bit-identical to the one Generator would build from scratch; the
// tests assert this on chains with duplicate (from, to) transitions,
// where summation order matters.
type GenPattern struct {
	n      int     // states
	ntrans int     // transitions in the source chain (incl. self-loops)
	fromTo []int64 // packed (from<<32 | to) per transition, for Apply validation
	rowPtr []int   // shared CSR structure
	colIdx []int
	// One (slot, src) pair per coordinate entry, in sorted (row, col)
	// order. src >= 0 reads transition src's rate; src < 0 reads the
	// negated outflow of row -(src+1).
	slot []int32
	src  []int32
}

// NewGenPattern derives the assembly pattern from c's transition
// structure and installs the resulting generator on c (so the sort work
// is not paid twice). The pattern is independent of the rates: any
// chain with the same transition structure can reuse it via Apply.
func NewGenPattern(c *Chain) *GenPattern {
	n := c.NumStates()
	p := &GenPattern{n: n, ntrans: len(c.transitions)}
	p.fromTo = make([]int64, len(c.transitions))
	// Recreate the coordinate entry list Generator builds: off-diagonal
	// transitions in order, then one diagonal entry per row with
	// outflow, rows ascending. src identifies the value source.
	type ent struct {
		row, col int
		src      int32
	}
	var ents []ent
	hasOut := make([]bool, n)
	for k, t := range c.transitions {
		p.fromTo[k] = int64(t.From)<<32 | int64(t.To)
		if t.From == t.To {
			continue
		}
		ents = append(ents, ent{t.From, t.To, int32(k)})
		hasOut[t.From] = true
	}
	for i := 0; i < n; i++ {
		if hasOut[i] {
			ents = append(ents, ent{i, i, int32(-(i + 1))})
		}
	}
	// Sort with the comparator linalg.COO.ToCSR uses. sort.Slice is
	// deterministic for a given key sequence, so the permutation — in
	// particular the relative order of duplicate (row, col) entries,
	// which fixes the floating-point summation order — matches the one
	// ToCSR applies to the same entries.
	sort.Slice(ents, func(a, b int) bool {
		if ents[a].row != ents[b].row {
			return ents[a].row < ents[b].row
		}
		return ents[a].col < ents[b].col
	})
	p.rowPtr = make([]int, n+1)
	p.slot = make([]int32, len(ents))
	p.src = make([]int32, len(ents))
	nslots := 0
	for k := 0; k < len(ents); {
		e := ents[k]
		s := int32(nslots)
		nslots++
		p.colIdx = append(p.colIdx, e.col)
		p.rowPtr[e.row+1]++
		for ; k < len(ents) && ents[k].row == e.row && ents[k].col == e.col; k++ {
			p.slot[k] = s
			p.src[k] = ents[k].src
		}
	}
	for i := 0; i < n; i++ {
		p.rowPtr[i+1] += p.rowPtr[i]
	}
	if err := p.Apply(c); err != nil {
		panic("ctmc: " + err.Error()) // cannot happen: pattern derived from c
	}
	return p
}

// NNZ returns the number of stored generator entries.
func (p *GenPattern) NNZ() int { return len(p.colIdx) }

// Apply computes c's generator by filling a fresh value array over the
// shared sparsity pattern and installs it on c, bypassing the COO sort.
// It returns an error if c's transition structure does not match the
// pattern's. A chain whose generator is already computed is left
// untouched.
func (p *GenPattern) Apply(c *Chain) error {
	if c.gen != nil {
		return nil
	}
	if c.NumStates() != p.n {
		return fmt.Errorf("ctmc: pattern for %d states applied to chain with %d", p.n, c.NumStates())
	}
	if len(c.transitions) != p.ntrans {
		return fmt.Errorf("ctmc: pattern for %d transitions applied to chain with %d", p.ntrans, len(c.transitions))
	}
	for k, t := range c.transitions {
		if p.fromTo[k] != int64(t.From)<<32|int64(t.To) {
			return fmt.Errorf("ctmc: transition %d is (%d -> %d), pattern expects (%d -> %d)",
				k, t.From, t.To, p.fromTo[k]>>32, p.fromTo[k]&0xffffffff)
		}
	}
	// Row outflows, accumulated in transition order exactly as
	// Generator does.
	out := make([]float64, p.n)
	for _, t := range c.transitions {
		if t.From != t.To {
			out[t.From] += t.Rate
		}
	}
	vals := make([]float64, len(p.colIdx))
	for k, s := range p.slot {
		src := p.src[k]
		if src >= 0 {
			vals[s] += c.transitions[src].Rate
		} else {
			vals[s] += -out[-(src + 1)]
		}
	}
	c.gen = &linalg.CSR{Rows: p.n, Cols: p.n, RowPtr: p.rowPtr, ColIdx: p.colIdx, Val: vals}
	return nil
}
