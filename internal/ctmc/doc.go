// Package ctmc represents labelled continuous-time Markov chains —
// the common currency every analytical path in this repository
// flows through. The paper's models (Section 3) are solved by
// building their CTMC, extracting the generator and computing the
// stationary distribution; both the hand-built state spaces of
// internal/core and the PEPA-derived ones of internal/pepa land here.
//
// Chains are constructed three ways. Builder interns state labels
// (string → dense index) and collects rate-labelled transitions
// incrementally; Build freezes the chain. NewChain is the streaming
// counterpart for producers that number states themselves — it adopts
// a dense label slice and a prebuilt transition list without copying
// or interning; the label→index map is only materialised if
// StateIndex is ever called. internal/pepa's integer-coded deriver
// uses NewChain to assemble chains without a per-state interning pass.
// Structure.Chain instantiates one shared state table at many rate
// points: the table holds the labels and, for internal/core's direct
// builders, each state's node populations (Chain.Population), so
// measures never parse a label. GenPattern likewise shares one
// generator sparsity pattern across those siblings. Every chain
// offers:
//
//   - Generator: the infinitesimal generator Q as a sparse CSR matrix
//     (internal/linalg), rows summing to zero;
//   - SteadyStateAuto, the one solve entry point (SteadyState is the
//     same call with default options): πQ = 0, Σπ = 1 by GTH for
//     small chains, then Gauss-Seidel, then power iteration. A
//     generator entry or a π component that is not finite (rates
//     whose row sums overflow) is an error;
//   - reward extraction: Expectation, Probability and
//     ActionThroughput, the building blocks for the paper's mean
//     queue lengths, loss probabilities and throughputs;
//   - Transient / TransientWith (transient.go): uniformised
//     transient probabilities π(t), with a row-partitioned parallel
//     matrix-vector path when workers > 1, used by the
//     first-passage and tagged-job analyses.
//
// CheckIrreducible guards against modelling slips that would make
// the stationary equations singular in surprising ways.
package ctmc
