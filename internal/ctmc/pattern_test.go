package ctmc

import (
	"math/rand"
	"sync"
	"testing"

	"pepatags/internal/linalg"
)

// randomStructure returns a transition structure (from, to pairs) with
// deliberate duplicate (from, to) pairs — including groups of three or
// more — and occasional self-loops, so the tests exercise the
// duplicate-summation order that GenPattern must reproduce exactly.
func randomStructure(rng *rand.Rand, n, m int) [][2]int {
	var trs [][2]int
	for k := 0; k < m; k++ {
		from := rng.Intn(n)
		to := rng.Intn(n)
		trs = append(trs, [2]int{from, to})
		// With some probability, immediately add duplicates of the same
		// pair so runs of length 2-4 appear.
		for rng.Float64() < 0.4 {
			trs = append(trs, [2]int{from, to})
		}
	}
	// Every state gets at least one outgoing edge.
	for i := 0; i < n; i++ {
		trs = append(trs, [2]int{i, (i + 1) % n})
	}
	return trs
}

func chainFromStructure(trs [][2]int, n int, rate func(k int) float64) *Chain {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.State(stateName(i))
	}
	for k, t := range trs {
		b.Transition(t[0], t[1], rate(k), "a")
	}
	return b.Build()
}

func stateName(i int) string { return string(rune('A' + i)) }

func requireSameCSR(t *testing.T, trial int, got, want *linalg.CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
		t.Fatalf("trial %d: shape mismatch: %dx%d nnz %d vs %dx%d nnz %d",
			trial, got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for i := 0; i <= got.Rows; i++ {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("trial %d: RowPtr[%d] %d != %d", trial, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range got.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] {
			t.Fatalf("trial %d: ColIdx[%d] %d != %d", trial, k, got.ColIdx[k], want.ColIdx[k])
		}
		if got.Val[k] != want.Val[k] {
			t.Fatalf("trial %d: Val[%d] %v != %v (duplicate-summation order?)",
				trial, k, got.Val[k], want.Val[k])
		}
	}
}

// TestGenPatternMatchesGeneratorExactly asserts that a generator filled
// through a pattern is bit-identical to one assembled from scratch by
// Generator, both for the chain the pattern was derived from and for
// siblings with different rates.
func TestGenPatternMatchesGeneratorExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(6)
		trs := randomStructure(rng, n, 3+rng.Intn(12))
		rates := make([]float64, len(trs))
		rates2 := make([]float64, len(trs))
		for k := range trs {
			rates[k] = 0.1 + rng.Float64()*10
			rates2[k] = 0.1 + rng.Float64()*10
		}
		ca := chainFromStructure(trs, n, func(k int) float64 { return rates[k] })
		pat := NewGenPattern(ca)

		// Source chain: NewGenPattern installed its generator.
		wantA := chainFromStructure(trs, n, func(k int) float64 { return rates[k] }).Generator()
		requireSameCSR(t, trial, ca.Generator(), wantA)

		// Sibling at different rates.
		want := chainFromStructure(trs, n, func(k int) float64 { return rates2[k] }).Generator()
		cb := chainFromStructure(trs, n, func(k int) float64 { return rates2[k] })
		cb.gen = nil
		if err := pat.Apply(cb); err != nil {
			t.Fatalf("trial %d: Apply: %v", trial, err)
		}
		requireSameCSR(t, trial, cb.Generator(), want)
	}
}

func TestGenPatternRejectsMismatchedStructure(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 3; i++ {
		b.State(stateName(i))
	}
	b.Transition(0, 1, 1, "a")
	b.Transition(1, 2, 2, "a")
	b.Transition(2, 0, 3, "a")
	pat := NewGenPattern(b.Build())

	// Wrong state count.
	b2 := NewBuilder()
	b2.State("A")
	b2.State("B")
	b2.Transition(0, 1, 1, "a")
	b2.Transition(1, 0, 1, "a")
	b2.Transition(1, 0, 1, "a")
	if err := pat.Apply(b2.Build()); err == nil {
		t.Fatal("expected state-count mismatch error")
	}

	// Same counts, different pairs.
	b3 := NewBuilder()
	for i := 0; i < 3; i++ {
		b3.State(stateName(i))
	}
	b3.Transition(0, 2, 1, "a")
	b3.Transition(1, 2, 2, "a")
	b3.Transition(2, 0, 3, "a")
	if err := pat.Apply(b3.Build()); err == nil {
		t.Fatal("expected transition-pair mismatch error")
	}
}

func TestStructureChainSharesLabels(t *testing.T) {
	s := NewStructure([]string{"X", "Y"}, 2, []int32{0, 1, 3, 2})
	c1 := s.Chain([]Transition{{From: 0, To: 1, Rate: 1, Action: "a"}, {From: 1, To: 0, Rate: 2, Action: "b"}})
	c2 := s.Chain([]Transition{{From: 0, To: 1, Rate: 3, Action: "a"}, {From: 1, To: 0, Rate: 4, Action: "b"}})
	if c1.Label(0) != "X" || c2.Label(1) != "Y" {
		t.Fatal("labels not shared correctly")
	}
	if i, ok := c2.StateIndex("Y"); !ok || i != 1 {
		t.Fatalf("StateIndex(Y) = %d, %t", i, ok)
	}
	if c1.Nodes() != 2 || c1.Population(0, 1) != 1 || c2.Population(1, 0) != 3 {
		t.Fatal("population table not shared correctly")
	}
	if NewChain([]string{"Z"}, nil).Nodes() != 0 {
		t.Fatal("a chain without a population table must report 0 nodes")
	}
	pi1, err := c1.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	pi2, err := c2.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if pi1[0] == pi2[0] {
		t.Fatal("expected different stationary distributions for different rates")
	}
}

// TestStructureIndexConcurrent looks labels up through sibling chains
// from several goroutines at once: the lazily built label map of the
// shared structure must be built once and read safely (run with -race).
func TestStructureIndexConcurrent(t *testing.T) {
	labels := []string{"A", "B", "C", "D"}
	s := NewStructure(labels, 0, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		c := s.Chain([]Transition{{From: 0, To: 1, Rate: float64(g + 1), Action: "a"}})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, l := range labels {
				if j, ok := c.StateIndex(l); !ok || j != i {
					t.Errorf("StateIndex(%s) = %d, %t", l, j, ok)
				}
			}
		}()
	}
	wg.Wait()
}
