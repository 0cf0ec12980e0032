// Package core contains the paper's models as Go types: the two-node
// timeout-allocation-with-guess (TAG) system of Section 3 and the
// comparison systems it is measured against.
//
//   - TAGExp (NewTAGExp): the exponential-demand TAG model with an
//     n-phase Erlang timeout race, built both as a direct CTMC (the
//     state space of Figure 3) and as generated PEPA source
//     (PEPASource, the Appendix A model) — the two are
//     cross-validated state-for-state in tests.
//   - TAGH2 (NewTAGH2): the hyperexponential-demand variant
//     (Section 3.2 / Figure 5), where the node-1 queue tracks the
//     service phase of the job in service.
//   - RandomAlloc: Bernoulli splitting to independent M/M/1/K queues,
//     the paper's baseline, validated against the closed form in
//     internal/queueing.
//   - ShortestQueue (and its H2 variant): join-the-shortest-queue,
//     the strongest conventional competitor (Appendix B PEPA model).
//   - MultiNode: the >2-node TAG generalisation discussed in the
//     paper's outlook.
//
// Each model offers Build (the ctmc.Chain) and Analyze, which solves
// for the stationary distribution and fills Measures — mean queue
// lengths L1/L2, mean response time, throughput, loss probability
// and timeout/guess rates — the quantities plotted in Figures 6-12.
// Models accept solver options so large instances can use the
// parallel derivation and iterative solvers (see internal/pepa and
// internal/linalg).
//
// # State representation
//
// Every direct builder derives its chain through one breadth-first
// deriver (derive.go), generic in the builder's typed state. The
// intern key is the state struct itself — comparable, so seeing a state
// again is a map lookup on its fields — and states are numbered in
// order of discovery, transitions kept in order of emission. Labels
// are rendered once per state when the derivation finishes, and only
// for printing: nothing in this package parses a label back. Alongside
// the labels the deriver records each state's node populations (q1
// and q2, or one per node for TAGMultiNode) in the population table of
// ctmc.Structure, which the chains instantiated from one skeleton
// share exactly as they share the labels. Measures read that table
// (analyzeTwoNode, MultiMeasures), so AnalyzeChain works on any chain
// a cached skeleton instantiates. Callers that need the whole state —
// the tagged-job chains' PASTA start, the fill-time passages and the
// response mixtures — take the typed state slice the deriver returns,
// indexed like the chain.
package core
