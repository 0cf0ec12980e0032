package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"pepatags/internal/ctmc"
)

// Model skeletons: the structure/rate split behind the sweep engine's
// content-addressed cache.
//
// For the built-in TAG models the reachable state space and the
// transition structure are a pure function of the model *shape* — the
// timer phase count, the queue capacities and (for H2 service) the
// degeneracy class of the branch probabilities. The numeric rates only
// scale edges. A Skeleton captures that shared structure once: state
// labels in derivation order plus symbolic transitions, each recording
// which rate slot and branch coefficient its numeric rate is the
// product of. Instantiate binds a concrete parameter point in
// O(transitions), producing a chain bit-identical to the one Build
// derives from scratch (Build itself routes through the skeleton, so
// the two cannot drift).

// RateSlot identifies which free rate parameter of a model shape a
// symbolic transition draws its rate from.
type RateSlot uint8

const (
	// SlotLambda is the arrival rate.
	SlotLambda RateSlot = iota
	// SlotMu is the exponential service rate (TAGExp).
	SlotMu
	// SlotT is the phase rate of the Erlang timeout clock.
	SlotT
	// SlotMu1 and SlotMu2 are the H2 branch service rates (TAGH2).
	SlotMu1
	SlotMu2
)

// Coeff identifies the branch-probability factor multiplying the slot
// rate. CoeffOne leaves the slot rate untouched; the others are the H2
// branching probabilities at node-1 entry (alpha) and at the node-2
// repeat-service instant (alpha', the residual short-job probability).
type Coeff uint8

const (
	CoeffOne Coeff = iota
	CoeffAlpha
	CoeffOneMinusAlpha
	CoeffAlphaPrime
	CoeffOneMinusAlphaPrime
	numCoeffs
)

// RateValues binds numeric values to the rate slots and branch
// coefficients of a shape. Only the fields a model kind uses are
// meaningful (TAGExp reads Lambda/Mu/T; TAGH2 reads Lambda/T/Mu1/Mu2
// and the two branch probabilities).
type RateValues struct {
	Lambda float64
	Mu     float64
	T      float64
	Mu1    float64
	Mu2    float64

	Alpha      float64
	AlphaPrime float64
}

func (v RateValues) slot(s RateSlot) float64 {
	switch s {
	case SlotLambda:
		return v.Lambda
	case SlotMu:
		return v.Mu
	case SlotT:
		return v.T
	case SlotMu1:
		return v.Mu1
	default:
		return v.Mu2
	}
}

func (v RateValues) coeff(c Coeff) float64 {
	switch c {
	case CoeffAlpha:
		return v.Alpha
	case CoeffOneMinusAlpha:
		return 1 - v.Alpha
	case CoeffAlphaPrime:
		return v.AlphaPrime
	case CoeffOneMinusAlphaPrime:
		return 1 - v.AlphaPrime
	default:
		return 1
	}
}

// zeroMask returns the degeneracy class of the branch coefficients:
// bit i is set iff coefficient kind i evaluates to exactly zero, which
// removes its edges from the reachable structure.
func (v RateValues) zeroMask() uint8 {
	var m uint8
	for c := Coeff(1); c < numCoeffs; c++ {
		if v.coeff(c) == 0 { //vet:allow floatcmp: structural sparsity mask
			m |= 1 << c
		}
	}
	return m
}

// Shape is the canonical structure of a built-in TAG model: every
// parameter that determines the reachable state space and the symbolic
// transition structure, with the numeric rates abstracted away. Two
// models with equal shapes derive identical skeletons; two models with
// different shapes derive different state spaces (the skeleton property
// test asserts both directions), so Key is a sound content address for
// caching derived structure.
type Shape struct {
	// Kind is "tagexp" or "tagh2".
	Kind string
	// Phases is the number of exponential stages in the timeout clock
	// (N, or N+1 under TAGExp's LiteralFigure3 semantics).
	Phases int
	// K1 and K2 are the queue capacities.
	K1, K2 int
	// Literal marks TAGExp's printed-Figure-3 semantics, which also tick
	// the node-2 timer during residual service.
	Literal bool
	// ZeroCoeffs is the degeneracy mask of the branch coefficients
	// (tagh2 only): edges whose coefficient is exactly zero are absent
	// from the structure, so the mask is part of the shape.
	ZeroCoeffs uint8
}

// Canonical returns the canonical human-readable encoding of the
// shape, the pre-image of Key.
func (s Shape) Canonical() string {
	return fmt.Sprintf("pepatags/shape/v1:%s/phases=%d/k1=%d/k2=%d/literal=%t/zero=%02x",
		s.Kind, s.Phases, s.K1, s.K2, s.Literal, s.ZeroCoeffs)
}

// Key returns the content address of the shape: the SHA-256 of the
// canonical encoding, in hex.
func (s Shape) Key() string {
	h := sha256.Sum256([]byte(s.Canonical()))
	return hex.EncodeToString(h[:])
}

// SymEdge is one symbolic transition of a skeleton: its numeric rate at
// a parameter point is slot(v) * coeff(v).
type SymEdge struct {
	From, To int32
	Slot     RateSlot
	Coeff    Coeff
	Action   string
}

// Skeleton is the derived structure shared by every instance of one
// Shape: the state table (labels and node populations) in derivation
// (BFS) order and symbolic transitions in emission order. A Skeleton
// is immutable after construction and safe for concurrent Instantiate
// calls.
type Skeleton struct {
	Shape     Shape
	Edges     []SymEdge
	structure *ctmc.Structure
}

// NumStates returns the size of the shared state space.
func (sk *Skeleton) NumStates() int { return sk.structure.NumStates() }

// Label returns the label of state i.
func (sk *Skeleton) Label(i int) string { return sk.structure.Label(i) }

// Instantiate binds a parameter point to the skeleton, producing a
// chain bit-identical to the one the model's Build would derive from
// scratch. It fails if the point's branch-coefficient degeneracy does
// not match the shape (an alpha of exactly 0 or 1 changes the reachable
// structure) or if any resulting rate is not positive and finite.
func (sk *Skeleton) Instantiate(v RateValues) (*ctmc.Chain, error) {
	if sk.Shape.Kind == "tagh2" {
		if m := v.zeroMask(); m != sk.Shape.ZeroCoeffs {
			return nil, fmt.Errorf("core: rate values have coefficient degeneracy %02x, skeleton was derived for %02x", m, sk.Shape.ZeroCoeffs)
		}
	}
	trs := make([]ctmc.Transition, len(sk.Edges))
	for i, e := range sk.Edges {
		r := v.slot(e.Slot)
		if e.Coeff != CoeffOne {
			r = r * v.coeff(e.Coeff)
		}
		if !(r > 0) {
			return nil, fmt.Errorf("core: non-positive rate %g for action %q (slot %d, coeff %d)", r, e.Action, e.Slot, e.Coeff)
		}
		trs[i] = ctmc.Transition{From: int(e.From), To: int(e.To), Rate: r, Action: e.Action}
	}
	return sk.structure.Chain(trs), nil
}

// skeletonDeriver records symbolic transitions, for the TAG models
// whose structure is derived once per shape. Edges whose coefficient
// is exactly zero at the shape's degeneracy mask are absent.
type skeletonDeriver[S modelState] struct {
	deriver[S]
	zero  uint8
	edges []SymEdge
}

func newSkeletonDeriver[S modelState](zero uint8, initial S) *skeletonDeriver[S] {
	d := &skeletonDeriver[S]{deriver: newDeriver[S](), zero: zero}
	d.visit(initial)
	return d
}

// emit records a symbolic transition from the state being expanded.
func (d *skeletonDeriver[S]) emit(to S, slot RateSlot, coeff Coeff, action string) {
	if d.zero&(1<<coeff) != 0 {
		return // degenerate branch probability (alpha 0 or 1)
	}
	d.edges = append(d.edges, SymEdge{From: int32(d.from), To: int32(d.visit(to)), Slot: slot, Coeff: coeff, Action: action})
}

// skeleton finishes the derivation.
func (d *skeletonDeriver[S]) skeleton(shape Shape) *Skeleton {
	return &Skeleton{Shape: shape, Edges: d.edges, structure: d.structure()}
}

// chain instantiates sk at v. The models vet their rates on
// construction, so an error here is a bug.
func (sk *Skeleton) chain(v RateValues) *ctmc.Chain {
	c, err := sk.Instantiate(v)
	if err != nil {
		panic("core: " + err.Error())
	}
	return c
}

// SkeletonModel is a model whose CTMC can be derived once per shape and
// re-instantiated at many parameter points. TAGExp and TAGH2 implement
// it; the sweep engine's cache is keyed on Shape().Key().
type SkeletonModel interface {
	// Shape returns the canonical structure of the model.
	Shape() Shape
	// Skeleton derives the shared structure (the expensive step).
	Skeleton() *Skeleton
	// RateValues returns this instance's binding for the shape's rate
	// slots and coefficients.
	RateValues() RateValues
}
