package core

import (
	"math/rand"
	"testing"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// requireSameChain asserts two chains are exactly equal: same labels in
// the same order and the same transitions (endpoints, actions and
// bit-identical rates) in the same order.
func requireSameChain(t *testing.T, got, want *ctmc.Chain) {
	t.Helper()
	if got.NumStates() != want.NumStates() {
		t.Fatalf("states: %d != %d", got.NumStates(), want.NumStates())
	}
	for i := 0; i < got.NumStates(); i++ {
		if got.Label(i) != want.Label(i) {
			t.Fatalf("label %d: %q != %q", i, got.Label(i), want.Label(i))
		}
	}
	gt, wt := got.Transitions(), want.Transitions()
	if len(gt) != len(wt) {
		t.Fatalf("transitions: %d != %d", len(gt), len(wt))
	}
	for k := range gt {
		if gt[k] != wt[k] {
			t.Fatalf("transition %d: %+v != %+v", k, gt[k], wt[k])
		}
	}
}

// TestSkeletonInstantiateMatchesBuild asserts that instantiating a
// model's skeleton at its own rates reproduces Build exactly, and that
// a single skeleton instantiated at a sibling's rates reproduces the
// sibling's Build exactly — the property the sweep cache relies on.
func TestSkeletonInstantiateMatchesBuild(t *testing.T) {
	a := NewTAGExp(5, 10, 12, 3, 4, 4)
	b := NewTAGExp(11, 10, 40, 3, 4, 4) // same shape, different rates
	sk := a.Skeleton()
	for _, m := range []TAGExp{a, b} {
		c, err := sk.Instantiate(m.RateValues())
		if err != nil {
			t.Fatal(err)
		}
		requireSameChain(t, c, m.Build())
	}

	h := dist.H2ForTAG(0.1, 0.95, 10)
	ha := NewTAGH2(5, h, 12, 3, 4, 4)
	hb := NewTAGH2(9, dist.H2ForTAG(0.1, 0.91, 10), 30, 3, 4, 4)
	hsk := ha.Skeleton()
	if hb.Shape() != ha.Shape() {
		t.Fatalf("expected equal shapes: %+v vs %+v", ha.Shape(), hb.Shape())
	}
	for _, m := range []TAGH2{ha, hb} {
		c, err := hsk.Instantiate(m.RateValues())
		if err != nil {
			t.Fatal(err)
		}
		requireSameChain(t, c, m.Build())
	}
}

// TestSkeletonLiteralFigure3 covers the alternate TAGExp semantics,
// which change the shape (extra timer phase, tick2 during service).
func TestSkeletonLiteralFigure3(t *testing.T) {
	m := TAGExp{Lambda: 5, Mu: 10, T: 12, N: 3, K1: 4, K2: 4, LiteralFigure3: true}
	c, err := m.Skeleton().Instantiate(m.RateValues())
	if err != nil {
		t.Fatal(err)
	}
	requireSameChain(t, c, m.Build())
	plain := TAGExp{Lambda: 5, Mu: 10, T: 12, N: 3, K1: 4, K2: 4}
	if m.Shape() == plain.Shape() || m.Shape().Key() == plain.Shape().Key() {
		t.Fatal("literal and calibrated semantics must have distinct shapes")
	}
}

// skeletonFingerprint flattens the derived structure (labels and
// symbolic edges) for equality comparison.
func skeletonFingerprint(sk *Skeleton) string {
	out := ""
	for i := 0; i < sk.NumStates(); i++ {
		out += sk.Label(i) + "\n"
	}
	for _, e := range sk.Edges {
		out += string(rune(e.From)) + string(rune(e.To)) + string(rune(e.Slot)) + string(rune(e.Coeff)) + e.Action + ";"
	}
	return out
}

// TestShapeKeyCollidesIffStructureIdentical is the cache-key property
// test: over a random population of models of both kinds, two shape
// keys are equal if and only if the derived skeletons (state spaces and
// symbolic transition structures) are identical.
func TestShapeKeyCollidesIffStructureIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type entry struct {
		key  string
		shp  Shape
		fp   string
		desc string
	}
	var entries []entry
	add := func(m SkeletonModel, desc string) {
		entries = append(entries, entry{key: m.Shape().Key(), shp: m.Shape(), fp: skeletonFingerprint(m.Skeleton()), desc: desc})
	}
	for i := 0; i < 12; i++ {
		n := 1 + rng.Intn(3)
		k1 := 1 + rng.Intn(3)
		k2 := 1 + rng.Intn(3)
		lam := 0.5 + rng.Float64()*10
		me := TAGExp{Lambda: lam, Mu: 10, T: 8, N: n, K1: k1, K2: k2, LiteralFigure3: rng.Intn(2) == 0}
		add(me, "tagexp")
		alpha := 0.85 + rng.Float64()*0.1
		mh := NewTAGH2(lam, dist.H2ForTAG(0.1, alpha, 10), 8, n, k1, k2)
		add(mh, "tagh2")
	}
	// Degenerate H2 cases: alpha exactly 1 collapses branches, giving a
	// different structure (and so a different key) at the same (n,K1,K2).
	det := dist.HyperExp{Alpha: []float64{1, 0}, Mu: []float64{10, 1}}
	add(NewTAGH2(5, det, 8, 2, 2, 2), "tagh2-degenerate")
	add(NewTAGH2(7, det, 24, 2, 2, 2), "tagh2-degenerate")
	mix := dist.H2ForTAG(0.1, 0.9, 10)
	add(NewTAGH2(5, mix, 8, 2, 2, 2), "tagh2-mixed")

	for i := range entries {
		for j := range entries {
			sameKey := entries[i].key == entries[j].key
			sameFp := entries[i].fp == entries[j].fp
			if sameKey != sameFp {
				t.Fatalf("key collision mismatch between %s %+v and %s %+v: sameKey=%t sameStructure=%t",
					entries[i].desc, entries[i].shp, entries[j].desc, entries[j].shp, sameKey, sameFp)
			}
		}
	}
}

// TestInstantiateRejectsDegeneracyMismatch asserts that a skeleton
// derived for a mixed H2 model refuses rate values whose branch
// probabilities are degenerate (structure would differ), and vice
// versa.
func TestInstantiateRejectsDegeneracyMismatch(t *testing.T) {
	mixed := NewTAGH2(5, dist.H2ForTAG(0.1, 0.9, 10), 8, 2, 3, 3)
	det := NewTAGH2(5, dist.HyperExp{Alpha: []float64{1, 0}, Mu: []float64{10, 1}}, 8, 2, 3, 3)
	if _, err := mixed.Skeleton().Instantiate(det.RateValues()); err == nil {
		t.Fatal("expected degeneracy mismatch error (mixed skeleton, degenerate rates)")
	}
	if _, err := det.Skeleton().Instantiate(mixed.RateValues()); err == nil {
		t.Fatal("expected degeneracy mismatch error (degenerate skeleton, mixed rates)")
	}
}

// TestInstantiateRejectsBadRates asserts rate validation at
// instantiation time.
func TestInstantiateRejectsBadRates(t *testing.T) {
	m := NewTAGExp(5, 10, 12, 2, 2, 2)
	sk := m.Skeleton()
	if _, err := sk.Instantiate(RateValues{Lambda: 0, Mu: 10, T: 12}); err == nil {
		t.Fatal("expected error for zero rate")
	}
}

// TestAnalyzeChainNeedsPopulations checks that a chain without the
// two-node population table (one not derived by this package) is
// refused with an error.
func TestAnalyzeChainNeedsPopulations(t *testing.T) {
	c := ctmc.NewChain([]string{"A", "B"}, []ctmc.Transition{{From: 0, To: 1, Rate: 1, Action: "a"}, {From: 1, To: 0, Rate: 1, Action: "b"}})
	if _, err := NewTAGExp(5, 10, 12, 2, 2, 2).AnalyzeChain(c); err == nil {
		t.Fatal("expected an error for a chain without node populations")
	}
}
