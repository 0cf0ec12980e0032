package core

import (
	"fmt"
	"strings"
)

// PEPASource renders the hyper-exponential TAG model as textual PEPA —
// the paper's Figure 5, with the OCR-garbled rates restored to their
// evident intent: the head-of-line job's branch is sampled when it
// reaches the server (via probabilistic branching on arrival into the
// empty queue, and on every departure for the next head), and the
// node-2 residual branch is sampled at repeatservice with the
// re-weighted probability alpha'.
//
// Branch probabilities on passive activities are expressed as weighted
// passive rates (w*T), which the cooperation semantics turn into
// fractions of the active timer rate — exactly the alpha*t /
// (1-alpha)*t rates of Figure 5.
func (m TAGH2) PEPASource() string {
	ap := m.AlphaPrime()
	top := m.N - 1
	alpha := m.Service.Alpha[0]
	var sb strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&sb, format, args...) }

	w("// TAG two-node system, Figure 5 (hyper-exponential service)\n")
	w("lambda = %g;\nmu1 = %g;\nmu2 = %g;\nt = %g;\n", m.Lambda, m.Service.Mu[0], m.Service.Mu[1], m.T)
	w("a = %.17g;  // alpha, short-job probability\n", alpha)
	w("ap = %.17g; // alpha', residual mix after the timeout\n\n", ap)

	mu := func(y int) string {
		if y == 1 {
			return "mu1"
		}
		return "mu2"
	}
	// departures emits the service1/timeout branches out of QA{i}Ty.
	departures := func(i, y int) string {
		if i == 1 {
			return fmt.Sprintf("(service1, %s).QA0 + (timeout, T).QA0", mu(y))
		}
		return fmt.Sprintf(
			"(service1, a*%s).QA%dT1 + (service1, (1-a)*%s).QA%dT2 + (timeout, %.17g*T).QA%dT1 + (timeout, %.17g*T).QA%dT2",
			mu(y), i-1, mu(y), i-1, alpha, i-1, 1-alpha, i-1)
	}

	w("QA0 = (arrival, a*lambda).QA1T1 + (arrival, (1-a)*lambda).QA1T2;\n")
	for y := 1; y <= 2; y++ {
		for i := 1; i <= m.K1; i++ {
			parts := []string{}
			if i < m.K1 {
				parts = append(parts, fmt.Sprintf("(arrival, lambda).QA%dT%d", i+1, y))
			}
			parts = append(parts, fmt.Sprintf("(tick1, T).QA%dT%d", i, y))
			parts = append(parts, departures(i, y))
			w("QA%dT%d = %s;\n", i, y, strings.Join(parts, " + "))
		}
	}
	w("\n")

	// Node-1 timer, as in the exponential model.
	w("TimerA0 = (timeout, t).TimerA%d + (service1, T).TimerA%d;\n", top, top)
	for i := 1; i <= top; i++ {
		w("TimerA%d = (tick1, t).TimerA%d + (service1, T).TimerA%d;\n", i, i-1, top)
	}
	w("\n")

	// Node-2 queue: QB{i} waiting (repeat period), QBS{i}Ty residual
	// service of branch y. Per Figure 5, no tick2 during the residual
	// service.
	w("QB0 = (timeout, T).QB1;\n")
	for i := 1; i <= m.K2; i++ {
		next := i + 1
		if i == m.K2 {
			next = i // timeout self-loop: job dropped
		}
		w("QB%d = (timeout, T).QB%d + (tick2, T).QB%d + (repeatservice, %.17g*T).QBS%dT1 + (repeatservice, %.17g*T).QBS%dT2;\n",
			i, next, i, ap, i, 1-ap, i)
		for y := 1; y <= 2; y++ {
			w("QBS%dT%d = (timeout, T).QBS%dT%d + (service2, %s).QB%d;\n",
				i, y, next, y, mu(y), i-1)
		}
	}
	w("\n")

	w("TimerB0 = (repeatservice, t).TimerB%d;\n", top)
	for i := 1; i <= top; i++ {
		w("TimerB%d = (tick2, t).TimerB%d;\n", i, i-1)
	}
	w("\n")

	w("(TimerA%d <timeout, service1, tick1> QA0) <timeout> (TimerB%d <repeatservice, tick2> QB0)\n",
		top, top)
	return sb.String()
}
