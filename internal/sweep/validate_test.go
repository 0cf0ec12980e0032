package sweep

import (
	"math"
	"strings"
	"testing"
)

// validPoint returns a valid point of the given model.
func validPoint(model string) Point {
	p := Point{Series: "s", Model: model, Lambda: 5, T: 12, N: 2, K1: 3, K2: 3, Service: ServiceSpec{Kind: "exp", Mu: 10}}
	switch model {
	case "tagh2":
		p.Service = ServiceSpec{Kind: "h2", Mean: 0.1, Alpha: 0.9, Ratio: 10}
	case "opt-t":
		p.Metric, p.TLo, p.THi = "min-queue", 2, 12
	}
	return p
}

func TestInvalidPoints(t *testing.T) {
	cases := []struct {
		name  string
		model string
		edit  func(p *Point)
		want  string
	}{
		{"no series", "tagexp", func(p *Point) { p.Series = "" }, "no series"},
		{"zero lambda", "tagexp", func(p *Point) { p.Lambda = 0 }, "lambda must be positive"},
		{"NaN lambda", "random", func(p *Point) { p.Lambda = math.NaN() }, "lambda must be positive"},
		{"infinite lambda", "shortest-queue", func(p *Point) { p.Lambda = math.Inf(1) }, "lambda must be positive"},
		{"exp mu", "tagexp", func(p *Point) { p.Service.Mu = 0 }, "exp service needs mu > 0"},
		{"h2 alpha", "tagh2", func(p *Point) { p.Service.Alpha = 1 }, "h2 service needs"},
		{"h2 mean", "tagh2", func(p *Point) { p.Service.Mean = -1 }, "h2 service needs"},
		{"service kind", "random", func(p *Point) { p.Service.Kind = "erlang" }, `unknown service kind "erlang"`},
		{"tagexp with h2", "tagh2", func(p *Point) { p.Model = "tagexp" }, "tagexp needs exp service"},
		{"tagexp t", "tagexp", func(p *Point) { p.T = 0 }, "tagexp needs t > 0"},
		{"tagexp n", "tagexp", func(p *Point) { p.N = 0 }, "need n, k1, k2 >= 1"},
		{"tagexp k2", "tagexp", func(p *Point) { p.K2 = 0 }, "need n, k1, k2 >= 1"},
		{"tagh2 with exp", "tagexp", func(p *Point) { p.Model = "tagh2" }, "tagh2 needs h2 service"},
		{"tagh2 t", "tagh2", func(p *Point) { p.T = -1 }, "tagh2 needs t > 0"},
		{"tagh2 k1", "tagh2", func(p *Point) { p.K1 = 0 }, "need n, k1, k2 >= 1"},
		{"round-robin k1", "round-robin", func(p *Point) { p.K1 = 0 }, "round-robin needs k1 >= 1"},
		{"opt-t metric", "opt-t", func(p *Point) { p.Metric = "max-fun" }, `unknown metric "max-fun"`},
		{"opt-t t_lo", "opt-t", func(p *Point) { p.TLo = 0 }, "opt-t needs 1 <= t_lo <= t_hi"},
		{"opt-t t_hi", "opt-t", func(p *Point) { p.THi = 1 }, "opt-t needs 1 <= t_lo <= t_hi"},
		{"opt-t n", "opt-t", func(p *Point) { p.N = 0 }, "need n, k1, k2 >= 1"},
		{"model", "tagexp", func(p *Point) { p.Model = "sita" }, `unknown model "sita"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := validPoint(tc.model)
			if err := p.validate(); err != nil {
				t.Fatalf("base point invalid: %v", err)
			}
			tc.edit(&p)
			err := p.validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("validate = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestExpandRejectsBadGroups(t *testing.T) {
	base := validPoint("tagexp")
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"no points", Spec{Name: "empty"}, "has no points"},
		{"no axes", Spec{Groups: []Group{{Point: base}}}, "has no axes"},
		{"axis field", Spec{Groups: []Group{{Point: base, Axes: []Axis{{Field: "rho", Values: []float64{1}}}}}}, `unknown axis field "rho"`},
		{"axis values and linspace", Spec{Groups: []Group{{Point: base, Axes: []Axis{{Field: "t", Values: []float64{1}, Linspace: &Linspace{From: 1, To: 2, Num: 2}}}}}}, "exactly one of values or linspace"},
		{"linspace num", Spec{Groups: []Group{{Point: base, Axes: []Axis{{Field: "t", Linspace: &Linspace{From: 1, To: 2}}}}}}, "linspace needs num >= 1"},
		{"invalid point", Spec{Points: []Point{{Series: "s", Model: "tagexp"}}}, "point 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.Expand()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Expand = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestAxisFields sets every axis field once and checks where it lands.
func TestAxisFields(t *testing.T) {
	p := validPoint("tagh2")
	for _, a := range []struct {
		field string
		v     float64
	}{{"lambda", 7}, {"n", 4}, {"eff", 3}, {"alpha", 0.8}, {"mu", 9}, {"mean", 0.2}, {"ratio", 20}, {"k", 6}, {"k1", 5}, {"x", 1}} {
		if err := (Axis{Field: a.field}).set(&p, a.v); err != nil {
			t.Fatal(err)
		}
	}
	want := Point{Series: "s", Model: "tagh2", Lambda: 7, T: 12, N: 4, K1: 5, K2: 6,
		Service: ServiceSpec{Kind: "h2", Mu: 9, Mean: 0.2, Alpha: 0.8, Ratio: 20}}
	if p != want {
		t.Fatalf("got %+v, want %+v", p, want)
	}
	if _, err := p.Service.Dist(); err != nil {
		t.Fatal(err)
	}
}

// TestShapeKeys checks which points share a cache entry: a shape key
// ignores rates, so the TAG points of one family and size share one,
// the baselines have none, and FreshShapes counts exactly the shapes a
// cache has not derived yet.
func TestShapeKeys(t *testing.T) {
	exp, expT := validPoint("tagexp"), validPoint("tagexp")
	expT.T, expT.Lambda = 40, 9
	opt := validPoint("opt-t")
	h2 := validPoint("tagh2")
	bigger := validPoint("tagexp")
	bigger.K1 = 4
	key := func(p Point) string {
		k, cached := p.ShapeKey()
		if !cached {
			t.Fatalf("%s point reports no shape key", p.Model)
		}
		return k
	}
	if key(exp) != key(expT) || key(exp) != key(opt) {
		t.Error("tagexp points of one size, and the matching opt-t search, must share a shape key")
	}
	if key(exp) == key(h2) || key(exp) == key(bigger) {
		t.Error("different families or capacities must not share a shape key")
	}
	if _, cached := validPoint("random").ShapeKey(); cached {
		t.Error("a baseline point must not route through the cache")
	}

	points := []Point{exp, expT, opt, h2, bigger, validPoint("shortest-queue")}
	if got := FreshShapes(points, nil); got != 3 {
		t.Fatalf("FreshShapes(nil cache) = %d, want 3", got)
	}
	cache := NewCache()
	if _, err := evalPoint(cache, h2); err != nil {
		t.Fatal(err)
	}
	if !cache.Contains(key(h2)) || cache.Contains(key(exp)) || cache.Shapes() != 1 {
		t.Fatalf("after one tagh2 solve: contains h2 %t, exp %t, %d shapes", cache.Contains(key(h2)), cache.Contains(key(exp)), cache.Shapes())
	}
	if got := FreshShapes(points, cache); got != 2 {
		t.Fatalf("FreshShapes after deriving the tagh2 shape = %d, want 2", got)
	}
}
