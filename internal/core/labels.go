package core

import "strings"

// labelReader decodes the fixed-layout state labels that the label
// methods render, field by field and without fmt. The sweep path
// decodes every state of a chain once per evaluated point, where
// fmt.Sscanf cost about a tenth of the run time.
type labelReader struct {
	rest string
	ok   bool
}

// lit consumes the literal text s.
func (r *labelReader) lit(s string) {
	if r.ok && strings.HasPrefix(r.rest, s) {
		r.rest = r.rest[len(s):]
	} else {
		r.ok = false
	}
}

// uint consumes a non-empty run of decimal digits.
func (r *labelReader) uint() int {
	n, i := 0, 0
	for ; i < len(r.rest) && '0' <= r.rest[i] && r.rest[i] <= '9'; i++ {
		n = n*10 + int(r.rest[i]-'0')
	}
	if i == 0 {
		r.ok = false
	}
	r.rest = r.rest[i:]
	return n
}

// char consumes one byte.
func (r *labelReader) char() byte {
	if !r.ok || r.rest == "" {
		r.ok = false
		return 0
	}
	c := r.rest[0]
	r.rest = r.rest[1:]
	return c
}

// done reports whether the whole label matched.
func (r *labelReader) done() bool { return r.ok && r.rest == "" }

// parseTagExpLabel inverts tagExpState.label.
func parseTagExpLabel(lbl string) (tagExpState, bool) {
	var s tagExpState
	r := labelReader{rest: lbl, ok: true}
	r.lit("Q1_")
	s.q1 = r.uint()
	r.lit(".T1_")
	s.tm1 = r.uint()
	r.lit("|Q2_")
	s.q2 = r.uint()
	switch r.char() {
	case 's':
		s.sv2 = true
	case 'w':
	default:
		return s, false
	}
	r.lit(".T2_")
	s.tm2 = r.uint()
	return s, r.done()
}

// parseTagH2Label inverts tagH2State.label.
func parseTagH2Label(lbl string) (tagH2State, bool) {
	var s tagH2State
	r := labelReader{rest: lbl, ok: true}
	r.lit("Q1_")
	s.q1 = r.uint()
	r.lit(".")
	s.ty1 = r.uint()
	r.lit(".T1_")
	s.tm1 = r.uint()
	r.lit("|Q2_")
	s.q2 = r.uint()
	r.lit(".")
	s.sv2 = r.uint()
	r.lit(".T2_")
	s.tm2 = r.uint()
	return s, r.done()
}
