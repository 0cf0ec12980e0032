package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"pepatags/internal/ctmc"
	"pepatags/internal/dist"
)

// Chain fingerprints of every direct CTMC builder. The expected hashes
// were recorded at commit 6123bd77ac88a740b5589dad82677f11ac86a4c2,
// before the builders moved onto the typed-state deriver: state
// order, labels, transition order, rate bits and actions — and the
// measures extracted from each chain — must stay exactly as they were.

// chainFingerprint hashes a chain's labels and each transition's
// endpoints, rate bits and action, in order.
func chainFingerprint(c *ctmc.Chain) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	put(uint64(c.NumStates()))
	for i := 0; i < c.NumStates(); i++ {
		str(c.Label(i))
	}
	put(uint64(c.NumTransitions()))
	for _, t := range c.Transitions() {
		put(uint64(t.From))
		put(uint64(t.To))
		put(math.Float64bits(t.Rate))
		str(t.Action)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// valueFingerprint hashes the bits of every number in v (a struct of
// ints, floats and float slices, or a float slice), in field order.
func valueFingerprint(v any) string {
	h := sha256.New()
	var buf [8]byte
	var walk func(r reflect.Value)
	walk = func(r reflect.Value) {
		switch r.Kind() {
		case reflect.Struct:
			for i := 0; i < r.NumField(); i++ {
				walk(r.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < r.Len(); i++ {
				walk(r.Index(i))
			}
		case reflect.Float64:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Float()))
			h.Write(buf[:])
		case reflect.Int:
			binary.LittleEndian.PutUint64(buf[:], uint64(r.Int()))
			h.Write(buf[:])
		default:
			panic("valueFingerprint: unsupported kind " + r.Kind().String())
		}
	}
	walk(reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil))
}

type fingerprintCase struct {
	name     string
	chain    func() *ctmc.Chain
	measures func() (any, error)
}

// taggedFingerprint returns the tagged-job chain together with its
// initial distribution and the derived response figures.
func taggedFingerprint(tr *TaggedResponse, err error) (*ctmc.Chain, any, error) {
	if err != nil {
		return nil, nil, err
	}
	return tr.chain, struct {
		Init                   []float64
		Done, Lost             int
		Success, MeanCondition float64
	}{tr.init, tr.doneIdx, tr.lostIdx, tr.successProb, tr.meanCond}, nil
}

func fingerprintCases() []fingerprintCase {
	exp := dist.NewExponential(10)
	h2 := dist.H2ForTAG(0.1, 0.95, 10)
	h2det := dist.HyperExp{Alpha: []float64{1, 0}, Mu: []float64{10, 1}}
	smooth := BurstyMMPP2(6, 1.5, 0.5)
	onOff := BurstyMMPP2(6, 2, 0.5) // phase-2 rate exactly 0
	literal := NewTAGExp(5, 10, 12, 3, 4, 4)
	literal.LiteralFigure3 = true
	alone := NewTAGHetero(7, 10, 12, 20, 25, 2, 4, 3)
	alone.ServeAloneToCompletion = true

	var cases []fingerprintCase
	add := func(name string, chain func() *ctmc.Chain, measures func() (any, error)) {
		cases = append(cases, fingerprintCase{name, chain, measures})
	}
	system := func(name string, build func() *ctmc.Chain, analyze func() (Measures, error)) {
		add(name, build, func() (any, error) { return analyze() })
	}
	tagged := func(name string, run func() (*TaggedResponse, error)) {
		add(name, func() *ctmc.Chain {
			c, _, err := taggedFingerprint(run())
			if err != nil {
				panic(err)
			}
			return c
		}, func() (any, error) {
			_, v, err := taggedFingerprint(run())
			return v, err
		})
	}

	for _, m := range []TAGExp{NewTAGExp(5, 10, 12, 3, 4, 4), NewTAGExp(9, 10, 42, 6, 10, 10), literal} {
		name := "tagexp"
		if m.LiteralFigure3 {
			name = "tagexp-literal"
		}
		system(name, m.Build, m.Analyze)
	}
	for _, m := range []TAGH2{NewTAGH2(11, h2, 40, 6, 4, 4), NewTAGH2(5, h2det, 8, 2, 3, 3)} {
		system("tagh2", m.Build, m.Analyze)
	}
	for _, arr := range []MMPP2{smooth, onOff} {
		e := NewTAGExpMMPP(arr, 10, 12, 3, 4, 4)
		system("tagexp-mmpp", e.Build, e.Analyze)
		h := NewTAGH2MMPP(arr, h2, 30, 3, 3, 3)
		system("tagh2-mmpp", h.Build, h.Analyze)
		s := ShortestQueueMMPP{Arrivals: arr, Mu: 5, K: 5}
		system("jsq-mmpp", s.Build, s.Analyze)
	}
	for _, d := range []dist.Distribution{exp, h2} {
		s := NewShortestQueue(9, d, 5)
		system("jsq", s.Build, s.Analyze)
		r := NewRoundRobinTwoNode(9, d, 5)
		system("roundrobin", r.Build, r.Analyze)
	}
	for _, m := range []TAGHetero{NewTAGHetero(7, 10, 12, 20, 25, 2, 4, 3), alone} {
		system("hetero", m.Build, m.Analyze)
	}
	for _, k := range [][]int{{4, 4}, {3, 3, 3}} {
		m := NewTAGMultiNode(5, 10, 20, 2, k)
		add("multinode", m.Build, func() (any, error) { return m.Analyze() })
	}
	for _, m := range []TAGExp{NewTAGExp(9, 10, 42, 6, 5, 5), NewTAGExp(3, 10, 20, 2, 3, 2)} {
		tagged("tagged-exp", m.TaggedJob)
	}
	for ty, m := range []TAGH2{NewTAGH2(9, h2, 40, 3, 4, 4), NewTAGH2(5, h2det, 8, 2, 3, 3)} {
		tagged("tagged-h2", func() (*TaggedResponse, error) { return m.TaggedJob(ty + 1) })
	}

	// Fill times and the analytic response mixtures read the typed
	// state too.
	fill := NewTAGExp(9, 10, 42, 3, 4, 4)
	add("tagexp-fill", fill.Build, func() (any, error) {
		n1, n2, err := fill.ExpectedFillTimes()
		return []float64{n1, n2}, err
	})
	for _, d := range []dist.Distribution{exp, h2} {
		s := NewShortestQueue(9, d, 5)
		add("jsq-fill", s.Build, func() (any, error) {
			e, b, err := s.ExpectedFillTime()
			return []float64{e, b}, err
		})
	}
	sq := NewShortestQueue(9, exp, 5)
	add("jsq-response", sq.Build, func() (any, error) { return mixtureWeights(sq.ResponseDistribution()) })
	rr := NewRoundRobinTwoNode(9, exp, 5)
	add("roundrobin-response", rr.Build, func() (any, error) { return mixtureWeights(rr.ResponseDistribution()) })
	return cases
}

// mixtureWeights lists a response mixture's weights by position.
func mixtureWeights(r *ResponseDistribution, err error) ([]float64, error) {
	if err != nil {
		return nil, err
	}
	w := make([]float64, 0, len(r.mix.weights))
	for p := 1; len(w) < len(r.mix.weights); p++ {
		w = append(w, r.mix.weights[p])
	}
	return w, nil
}

// TestChainFingerprints compares every direct builder's chain, and the
// measures extracted from it, with the recorded hashes.
func TestChainFingerprints(t *testing.T) {
	cases := fingerprintCases()
	if len(cases) != len(fingerprintWant) {
		t.Fatalf("%d cases, %d recorded fingerprints", len(cases), len(fingerprintWant))
	}
	for i, tc := range cases {
		gotChain := chainFingerprint(tc.chain())
		v, err := tc.measures()
		if err != nil {
			t.Fatalf("%d %s: %v", i, tc.name, err)
		}
		gotMeasures := valueFingerprint(v)
		if want := fingerprintWant[i]; gotChain != want[0] || gotMeasures != want[1] {
			t.Errorf("%d %s: got {%q, %q}, want {%q, %q}", i, tc.name, gotChain, gotMeasures, want[0], want[1])
		}
	}
}

// fingerprintWant holds {chain, measures} hashes, index-aligned with
// fingerprintCases.
var fingerprintWant = [][2]string{
	{"0fef13bfe6a1939107575e1c6ab1431bd05d62d03dedafa15df1507b15ac84bd", "3bff6db71a390fb760987ad57225c5085cc09abf1beac2a765e4e72b064f9706"}, // 0 tagexp
	{"6737308768dcc0ad23441a99dc887b6140c4b0dcec53fb370335f9a559c3d904", "7dd2041fe9f9f6bb2de4ea88b00fd1fb015bf274cfdc435843b466eaedaa11c5"}, // 1 tagexp
	{"713cdbc08567eac533081ba9ab4a53af55aa6c58dd0e8645da34cb7c9bb33fc8", "631016a7ec32eaba8394a33ba8a00a5ec334ed7d2584296dde0985a935f370ff"}, // 2 tagexp-literal
	{"1b619937610ee4a6b149a73e96359c4aa3c271d832c6f4a093969e3cf4b86678", "5bcc181b27a797404ea11feb22b9a5791f8ae11f874feca6be91e123b715ec27"}, // 3 tagh2
	{"3a8f521325eccc4610d73566d588042989632cd0531a352c5b21a9cac203be89", "330ce0cb65157369e5a77653100090b545714399bc1ce1de7199d4b31ef786d9"}, // 4 tagh2
	{"c00d3371cee8d039257726df7b9a425a0b0eaedf9a891af37b5f77ecd7ab61a5", "ff9d5f396ce53deb7ea9f5c0ad880af708b553953611daa50163a3b5e1f4e5bd"}, // 5 tagexp-mmpp
	{"8824f7512243a522ca99b13269d085c6bf83aec9276428d1db6810dc948d70bd", "361b08378b30d8874a37bf810a37e04f7b587f9725cf1656cb684afa349e4fab"}, // 6 tagh2-mmpp
	{"4b9cdb96ccba287e06a00ceb1d0099530aca90990ec413c41be85217393cc7a5", "efb649ca6d4f09ad3bf79ce3d4c1aedd4295dcb2872ee7f398e04d3691b81d1a"}, // 7 jsq-mmpp
	{"16161ce83c1f5099a9b0c28b6745339d2c323b4010c32239d28ca621479cd3e5", "54007161d45f4fce0db97c1f8413e539874571a628476057999a0f986cba1ff9"}, // 8 tagexp-mmpp
	{"b4b3b34c61cb21dea2c50b23f4ea51a6a60ae574d9502d24c3d457c94140d7aa", "81fdc2bea45f340dd268e3430dd34fca14258a7294db9af7b82d4e5658d4fc05"}, // 9 tagh2-mmpp
	{"c76768c1d16159aed5d0cee55e607eeea8963529b3a128f1e9e4ac52297808bd", "a983b96bb37c17a134f78dd5200447855673eea3918b4eb97f007833726d41f9"}, // 10 jsq-mmpp
	{"056d3ab09753862001c296c6ce8accbf250f18c4259beaaeea6abb8ed4708917", "b07b9605624b6fbfe0d2bb57225fb65bb99a9098ea2c699db977804d402efbdb"}, // 11 jsq
	{"9d92b2d019488836aed2d5a1601812f05640d6eb9a127d2becf301ea13ad003f", "d456955ff52584b95dc813c5e7d764f652b737eaa3943ed5bc98076865e0ee25"}, // 12 roundrobin
	{"1511ea0377079f094f6d9891d446e36e83e5a6ff72fbb7da5eaa796bcbfef3c0", "e962e2d0b7e2265d34e2d0ef61c7ac1b36dba03ae534675f290e39c67b0084a7"}, // 13 jsq
	{"465d9e342d65eba9fc636806a0c23998e71e4e701a4015dc33e9a8ed60b86ac1", "7058c579ab76f7d937add37274b69ed0f1ad3f02de04d838931748cf3f300ee7"}, // 14 roundrobin
	{"9a9ac88757d1ec425ebf0e1af3725a948bb9ba422fde51938ee6a551486f411f", "407d2c12d950b4cfd67db6d514abc5bfe1b56b01dc9c0e67f7f0c909457c64f4"}, // 15 hetero
	{"4d9e65226ec20f9b5e06bf10624f2a3d92abfa8927764945f05cfd6849b7926a", "ce3f09acee5339544a5e5db4a67cdeb82e0b49570ad0d949dd8eac1ba63be570"}, // 16 hetero
	{"ec18ebcb30da219b95c2a202132f5151aa7cec7c2ccdb164aa4911d3ae80055a", "3cc9cc0fd3548ee67a85c3229aa7c221180a03cab6a5f627d31e359da4a67eee"}, // 17 multinode
	{"948cd0152f0fc5bd805ee4568dcfdf927b8d5006c406dcd9b4f4a54b33ccdfaa", "870087dde8fc4b44b96ddd3588020d43614d4f8e2e6fffe2f11be57813a283b8"}, // 18 multinode
	{"b90210923c043f247606c2c7b21659341a6e6007d816a609fe7ac96b7ddd130d", "a685f4a741ec1a0912e8a1e71a51391e1f7b1601e982b63b1ecabaf96c3d99e2"}, // 19 tagged-exp
	{"088f5c6a015f0693b2be128d248937a149f584dd3e59a5ed7dd828972a896264", "17aec81985059ed723790f01db353d70fd6a2dcf71833dabfa3245880ac28c5a"}, // 20 tagged-exp
	{"d080b37a8641bd3f54b648bf04830a9fdd8939264d59a4e3037fc8dc4889f695", "dbb6805798323285c0d11dacb3c7628e382a81903123561f84882276e8c88697"}, // 21 tagged-h2
	{"73dc6b1d8c1068341bb42dc62a3ff40556c9352cdc90466113de7019755cfb82", "ce9ae5f2139d981e0c3abca84757e01e5bccfed93114865ea1d2afd0acd1fff5"}, // 22 tagged-h2
	{"e82c375f411dd6c09b899484539571f41af2d82068e490ff7c1c72160751e63b", "8dd3cedf0992c3f11937080e0c2b9b00c496b95959b7fd24c2c72588a2d507d2"}, // 23 tagexp-fill
	{"056d3ab09753862001c296c6ce8accbf250f18c4259beaaeea6abb8ed4708917", "945dc6a8757534cd7575c757aaba6072ccf2e34eaa69ba3fb06dca10af43d5b0"}, // 24 jsq-fill
	{"1511ea0377079f094f6d9891d446e36e83e5a6ff72fbb7da5eaa796bcbfef3c0", "244c89dc7a566144ee99c09f29af0352feea6ee8977c8b93c8b4515180948803"}, // 25 jsq-fill
	{"056d3ab09753862001c296c6ce8accbf250f18c4259beaaeea6abb8ed4708917", "46b0c3a0c2e74d444efe8b025a0ec92d10978fbdedc8fc3575633af3faa78bc5"}, // 26 jsq-response
	{"9d92b2d019488836aed2d5a1601812f05640d6eb9a127d2becf301ea13ad003f", "a2efd1f545c32446f121bbe15a94695e02c723ba9b600a58820f2554ddf62b38"}, // 27 roundrobin-response
}
