package core

import (
	"fmt"
	"strings"
)

// PEPASource renders the model as textual PEPA accepted by
// internal/pepa.Parse. The component structure follows the paper's
// Figure 3:
//
//	Node1 = Timer1 <timeout, service1, tick1> Q1_0
//	Node2 = Timer2 <repeatservice, tick2> Q2_0
//	System = Node1 <timeout> Node2
//
// with queue derivatives QA0..QA{K1}, QB_i / QBS_i (the paper's Q2_i /
// Q2'_i) and Erlang timers with phases()-many stages. Deriving this
// text with the PEPA engine produces a CTMC whose measures are
// identical to the direct builder — that equivalence is asserted in
// tests.
func (m TAGExp) PEPASource() string {
	top := m.config().phases() - 1
	var sb strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&sb, format, args...) }

	w("// TAG two-node system, Figure 3 (exponential service)\n")
	w("lambda = %g;\nmu = %g;\nt = %g;\n\n", m.Lambda, m.Mu, m.T)

	// Queue 1.
	if m.K1 == 1 {
		w("QA0 = (arrival, lambda).QA1;\n")
		w("QA1 = (service1, mu).QA0 + (timeout, T).QA0 + (tick1, T).QA1;\n\n")
	} else {
		w("QA0 = (arrival, lambda).QA1;\n")
		for i := 1; i < m.K1; i++ {
			w("QA%d = (arrival, lambda).QA%d + (service1, mu).QA%d + (timeout, T).QA%d + (tick1, T).QA%d;\n",
				i, i+1, i-1, i-1, i)
		}
		w("QA%d = (service1, mu).QA%d + (timeout, T).QA%d + (tick1, T).QA%d;\n\n",
			m.K1, m.K1-1, m.K1-1, m.K1)
	}

	// Timer 1: phases top..1 tick, phase 0 fires the timeout; service1
	// resets it from any phase.
	w("TimerA0 = (timeout, t).TimerA%d + (service1, T).TimerA%d;\n", top, top)
	for i := 1; i <= top; i++ {
		w("TimerA%d = (tick1, t).TimerA%d + (service1, T).TimerA%d;\n", i, i-1, top)
	}
	if top == 0 {
		// Single-phase timer: the tick action never occurs, but the
		// queue still offers it passively; add an always-blocked timer
		// participant so tick1 stays synchronised (no-op).
		w("// single-phase timer: no ticks\n")
	}
	w("\n")

	// Queue 2. QB = waiting (Q2), QBS = in residual service (Q2').
	tickQBS := ""
	if m.LiteralFigure3 {
		tickQBS = " + (tick2, T).QBS%d"
	}
	w("QB0 = (timeout, T).QB1;\n")
	for i := 1; i < m.K2; i++ {
		w("QB%d = (timeout, T).QB%d + (tick2, T).QB%d + (repeatservice, T).QBS%d;\n",
			i, i+1, i, i)
		if m.LiteralFigure3 {
			w("QBS%d = (timeout, T).QBS%d"+fmt.Sprintf(tickQBS, i)+" + (service2, mu).QB%d;\n",
				i, i+1, i-1)
		} else {
			w("QBS%d = (timeout, T).QBS%d + (service2, mu).QB%d;\n", i, i+1, i-1)
		}
	}
	w("QB%d = (timeout, T).QB%d + (tick2, T).QB%d + (repeatservice, T).QBS%d;\n",
		m.K2, m.K2, m.K2, m.K2)
	if m.LiteralFigure3 {
		w("QBS%d = (timeout, T).QBS%d"+fmt.Sprintf(tickQBS, m.K2)+" + (service2, mu).QB%d;\n\n",
			m.K2, m.K2, m.K2-1)
	} else {
		w("QBS%d = (timeout, T).QBS%d + (service2, mu).QB%d;\n\n", m.K2, m.K2, m.K2-1)
	}

	// Timer 2.
	w("TimerB0 = (repeatservice, t).TimerB%d;\n", top)
	for i := 1; i <= top; i++ {
		w("TimerB%d = (tick2, t).TimerB%d;\n", i, i-1)
	}
	w("\n")

	// Note: unlike Timer1 (which is reset by service1), Timer2 has no
	// service2 activity, so service2 must not appear in the Node-2
	// cooperation set — it would block forever.
	w("(TimerA%d <timeout, service1, tick1> QA0) <timeout> (TimerB%d <repeatservice, tick2> QB0)\n",
		top, top)
	return sb.String()
}
