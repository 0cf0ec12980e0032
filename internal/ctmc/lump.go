package ctmc

import (
	"fmt"
	"sort"
	"strings"
)

// Exact ordinary lumping by partition refinement. Two states can share
// a block only if, for every block B and action a, their total rate
// into B under a is equal. The quotient chain preserves all the
// measures the paper uses (action throughputs and block-level
// rewards), and shrinks e.g. the TAG model when only queue lengths —
// not timer phases — matter downstream.

// Partition maps each state to its block index.
type Partition []int

// NumBlocks returns the number of blocks.
func (p Partition) NumBlocks() int {
	m := -1
	for _, b := range p {
		if b > m {
			m = b
		}
	}
	return m + 1
}

// Lump refines the initial partition (any labelling; use all-zeros for
// the coarsest start) until it is stable under the lumpability
// condition, then returns the final partition and the quotient chain.
// The quotient's state labels are "block<i>(<first member label>)".
func (c *Chain) Lump(initial Partition) (Partition, *Chain, error) {
	n := c.NumStates()
	if len(initial) != n {
		return nil, nil, fmt.Errorf("ctmc: partition size %d != %d states", len(initial), n)
	}
	part := make(Partition, n)
	copy(part, initial)

	// Outgoing labelled rates per state. Self-loops do not affect the
	// generator but do carry action throughput, so they participate in
	// the signatures and survive into the quotient as labelled
	// self-loops.
	type arc struct {
		to   int
		rate float64
		act  string
	}
	out := make([][]arc, n)
	for _, t := range c.transitions {
		out[t.From] = append(out[t.From], arc{to: t.To, rate: t.Rate, act: t.Action})
	}

	// Refine until stable: signature of a state = sorted list of
	// (action, targetBlock) -> summed rate.
	for iter := 0; ; iter++ {
		if iter > n {
			return nil, nil, fmt.Errorf("ctmc: lumping failed to stabilise")
		}
		sig := make([]string, n)
		for i := 0; i < n; i++ {
			acc := map[string]float64{}
			for _, a := range out[i] {
				acc[a.act+"\x00"+fmt.Sprint(part[a.to])] += a.rate
			}
			keys := make([]string, 0, len(acc))
			for k := range acc {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var sb strings.Builder
			fmt.Fprintf(&sb, "b%d|", part[i])
			for _, k := range keys {
				fmt.Fprintf(&sb, "%s=%.15g;", k, acc[k])
			}
			sig[i] = sb.String()
		}
		// Re-block by signature.
		blockOf := map[string]int{}
		next := make(Partition, n)
		for i := 0; i < n; i++ {
			b, ok := blockOf[sig[i]]
			if !ok {
				b = len(blockOf)
				blockOf[sig[i]] = b
			}
			next[i] = b
		}
		if next.NumBlocks() == part.NumBlocks() {
			part = next
			break
		}
		part = next
	}

	// Build the quotient: rates from any representative of each block.
	nb := part.NumBlocks()
	rep := make([]int, nb)
	for i := range rep {
		rep[i] = -1
	}
	for i := 0; i < n; i++ {
		if rep[part[i]] == -1 {
			rep[part[i]] = i
		}
	}
	b := NewBuilder()
	for bi := 0; bi < nb; bi++ {
		b.State(fmt.Sprintf("block%d(%s)", bi, c.Label(rep[bi])))
	}
	for bi := 0; bi < nb; bi++ {
		type target struct {
			act string
			to  int
		}
		acc := map[target]float64{}
		for _, a := range out[rep[bi]] {
			acc[target{a.act, part[a.to]}] += a.rate
		}
		for key, rate := range acc {
			// Intra-block rates become labelled self-loops: inert for
			// the generator, but preserving action throughput.
			b.Transition(bi, key.to, rate, key.act)
		}
	}
	return part, b.Build(), nil
}

// LiftStationary maps a quotient stationary vector back to block
// probabilities indexed by the original partition (it is simply the
// quotient vector; provided for symmetry and documentation).
func LiftStationary(part Partition, quotientPi []float64) ([]float64, error) {
	if part.NumBlocks() != len(quotientPi) {
		return nil, fmt.Errorf("ctmc: %d blocks vs %d probabilities", part.NumBlocks(), len(quotientPi))
	}
	out := make([]float64, len(quotientPi))
	copy(out, quotientPi)
	return out, nil
}
