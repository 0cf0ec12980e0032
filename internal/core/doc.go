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
//
// Compositional builders. The two-node models are configurations of
// two rules rather than hand-written derivations. The TAG rule
// (tagrule.go) is the one set of transition rules of Figure 3 and
// Figure 5, parameterised by the arrival process (Poisson, or MMPP-2
// with its phase flip emitted first), the node-1 service (exponential,
// or H2 with the branch sampled at the head and re-sampled with alpha'
// at repeatservice), the rate slot of each node's service and timer,
// the timer phase count, the literal-Figure-3 tick during residual
// service and serve-alone-to-completion. It emits every edge
// symbolically (rate slot × branch coefficient) through the skeleton
// deriver, so every TAG chain is a skeleton instantiated at its rates
// and there is one rate arithmetic. TAGExp is the Poisson, exponential
// configuration (LiteralFigure3 adds the extra phase and the tick);
// TAGH2 the Poisson, H2 one; TAGExpMMPP and TAGH2MMPP the same with
// MMPP-2 arrivals, whose zero phase-2 rate removes its edges as a zero
// coefficient does; TAGHetero the exponential one with a service and a
// timer slot per node (ServeAloneToCompletion suppresses the lone
// job's timeout). One validator on the configuration vets them all.
// The routing rule (route.go) is the baselines' counterpart: join the
// shortest queue or round robin over two bounded queues that share one
// queue piece (an arrival at an idle node, and a departure with a job
// behind it, sample the new job's H2 branch) and one service
// normaliser, under Poisson or MMPP-2 arrivals. ShortestQueue is the
// Poisson JSQ configuration, ShortestQueueMMPP the MMPP-2 one with
// exponential service, and RoundRobinAlloc the Poisson round-robin
// one. Each configuration keeps its own state label format, and
// fingerprint_test.go pins every chain's labels, transition order and
// rate bits. TAGMultiNode and the tagged-job chains keep their own
// derivations.
package core
