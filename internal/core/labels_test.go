package core

import (
	"testing"

	"pepatags/internal/dist"
)

// TestLabelDecodersRoundTrip decodes every state label of TAGExp (both
// Figure-3 readings) and TAGH2 (mixed and degenerate branch
// probabilities) and requires label() to render the original back.
// K >= 10 and N > 10 put multi-digit values in every field.
func TestLabelDecodersRoundTrip(t *testing.T) {
	for _, literal := range []bool{false, true} {
		m := NewTAGExp(9, 10, 40, 12, 10, 11)
		m.LiteralFigure3 = literal
		c := m.Build()
		for i := 0; i < c.NumStates(); i++ {
			lbl := c.Label(i)
			s, ok := parseTagExpLabel(lbl)
			if !ok || s.label() != lbl {
				t.Fatalf("tagexp literal=%v: %q decoded to %+v (ok=%v), renders %q", literal, lbl, s, ok, s.label())
			}
		}
	}
	for _, h := range []dist.HyperExp{
		dist.H2ForTAG(0.1, 0.95, 10),
		{Alpha: []float64{1, 0}, Mu: []float64{10, 1}},
	} {
		c := NewTAGH2(11, h, 40, 11, 10, 12).Build()
		for i := 0; i < c.NumStates(); i++ {
			lbl := c.Label(i)
			s, ok := parseTagH2Label(lbl)
			if !ok || s.label() != lbl {
				t.Fatalf("tagh2 alpha=%v: %q decoded to %+v (ok=%v), renders %q", h.Alpha, lbl, s, ok, s.label())
			}
		}
	}
}

// TestLabelDecodersRejectMalformed checks that a label off the layout
// fails to decode instead of yielding a partial state.
func TestLabelDecodersRejectMalformed(t *testing.T) {
	for _, lbl := range []string{
		"", "Q1_", "Q1_3.T1_2|Q2_4x.T2_1", "Q1_3.T1_2|Q2_4s.T2_", "Q1_3.T1_2|Q2_4s.T2_1|",
		"Q1_-3.T1_2|Q2_4s.T2_1", "Q1_3.1.T1_2|Q2_4.0.T2_1",
	} {
		if s, ok := parseTagExpLabel(lbl); ok {
			t.Errorf("tagexp %q decoded to %+v", lbl, s)
		}
	}
	for _, lbl := range []string{
		"", "Q1_3.T1_2|Q2_4s.T2_1", "Q1_3.1.T1_2|Q2_4.0.T2_", "Q1_3.1.T1_2|Q2_4.0.T2_1x", "Q1_3..T1_2|Q2_4.0.T2_1",
	} {
		if s, ok := parseTagH2Label(lbl); ok {
			t.Errorf("tagh2 %q decoded to %+v", lbl, s)
		}
	}
}
