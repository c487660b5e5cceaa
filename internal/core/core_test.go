package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestAggregateMerge(t *testing.T) {
	cases := []struct {
		agg  Aggregate
		x, y float64
		want float64
	}{
		{Average, 1, 3, 2},
		{Average, -2, 2, 0},
		{Max, 1, 3, 3},
		{Max, -5, -7, -5},
		{Min, 1, 3, 1},
		{Min, -5, -7, -7},
	}
	for _, tc := range cases {
		if got := tc.agg.Merge(tc.x, tc.y); got != tc.want {
			t.Errorf("%v.Merge(%g, %g) = %g, want %g", tc.agg, tc.x, tc.y, got, tc.want)
		}
	}
}

func TestAggregateMergeCommutative(t *testing.T) {
	check := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		for _, agg := range []Aggregate{Average, Max, Min} {
			if agg.Merge(x, y) != agg.Merge(y, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxMinIdempotent(t *testing.T) {
	check := func(x float64) bool {
		// (x+x)/2 overflows for |x| > MaxFloat64/2; that extreme is out
		// of the protocol's numeric contract.
		if math.IsNaN(x) || math.Abs(x) > math.MaxFloat64/2 {
			return true
		}
		return Max.Merge(x, x) == x && Min.Merge(x, x) == x && Average.Merge(x, x) == x
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseAggregate(t *testing.T) {
	for name, want := range map[string]Aggregate{
		"average": Average, "avg": Average, "max": Max, "min": Min,
	} {
		got, err := ParseAggregate(name)
		if err != nil || got != want {
			t.Errorf("ParseAggregate(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseAggregate("median"); err == nil {
		t.Error("unknown aggregate accepted")
	}
}

func TestAggregateString(t *testing.T) {
	if Average.String() != "average" || Max.String() != "max" || Min.String() != "min" {
		t.Error("Aggregate String labels wrong")
	}
	if Aggregate(99).String() == "" {
		t.Error("invalid aggregate produced empty string")
	}
}

func TestMergeInvalidAggregatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Merge on invalid Aggregate did not panic")
		}
	}()
	Aggregate(99).Merge(1, 2)
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema(Field{Name: "a", Agg: Average}); err == nil {
		t.Error("nil Init accepted")
	}
	f := Field{Name: "a", Agg: Average, Init: func(v float64) float64 { return v }}
	if _, err := NewSchema(f, f); err == nil {
		t.Error("duplicate field names accepted")
	}
}

func TestSchemaIndexAndNames(t *testing.T) {
	s := SummarySchema()
	names := s.FieldNames()
	want := []string{"avg", "avgsq", "min", "max", "size"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("names = %v, want %v", names, want)
		}
		idx, err := s.Index(n)
		if err != nil || idx != i {
			t.Fatalf("Index(%q) = %d, %v", n, idx, err)
		}
	}
	if _, err := s.Index("nope"); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestSchemaInitAndMerge(t *testing.T) {
	s := SummarySchema()
	a := s.InitState(4) // avg=4, avgsq=16, min=4, max=4, size=0
	b := s.InitState(2) // avg=2, avgsq=4,  min=2, max=2, size=0
	m := s.Merge(a, b)
	want := State{3, 10, 2, 4, 0}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("merge = %v, want %v", m, want)
		}
	}
	// MergeInto must write the same result into both states.
	s.MergeInto(a, b)
	for i := range want {
		if a[i] != want[i] || b[i] != want[i] {
			t.Fatalf("MergeInto: a=%v b=%v, want both %v", a, b, want)
		}
	}
}

func TestSchemaMergeExchange(t *testing.T) {
	s := SummarySchema()
	state := s.InitState(4)   // the passive node's state
	inbound := s.InitState(2) // the received push payload
	merged := s.Merge(state, inbound)
	s.MergeExchange(state, inbound)
	// The payload is the transfer d = (4−2)/2 for each Average field
	// (avg, avgsq, size) and the pre-merge value for min and max.
	payload := State{1, 6, 4, 4, 0}
	for i := range merged {
		if state[i] != merged[i] {
			t.Fatalf("MergeExchange state = %v, want merge %v", state, merged)
		}
		if inbound[i] != payload[i] {
			t.Fatalf("MergeExchange inbound = %v, want transfer payload %v", inbound, payload)
		}
	}
	// Applied to the state the initiator pushed, the payload lands on the
	// merge; applied to a state that moved since (an injected +8), it
	// lands the move on top, so the pair's Σ is conserved either way.
	pushed := s.InitState(2)
	s.ApplyTransfer(pushed, inbound)
	moved := s.InitState(2)
	moved[0] += 8
	s.ApplyTransfer(moved, inbound)
	for i := range merged {
		if pushed[i] != merged[i] {
			t.Fatalf("ApplyTransfer = %v, want merge %v", pushed, merged)
		}
	}
	if moved[0] != merged[0]+8 || moved[0]+state[0] != 2+4+8 {
		t.Fatalf("ApplyTransfer on a moved state: avg %g beside %g, want %g (Σ %g)", moved[0], state[0], merged[0]+8, 2.0+4+8)
	}
}

func TestDecodeSummary(t *testing.T) {
	s := SummarySchema()
	st := State{3, 10, 2, 4, 0.001} // 1/0.001 = 1000 nodes
	sum, err := DecodeSummary(s, st)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mean != 3 {
		t.Errorf("mean = %g", sum.Mean)
	}
	if want := 10.0 - 9.0; math.Abs(sum.Variance-want) > 1e-12 {
		t.Errorf("variance = %g, want %g", sum.Variance, want)
	}
	if sum.Min != 2 || sum.Max != 4 {
		t.Errorf("min/max = %g/%g", sum.Min, sum.Max)
	}
	if math.Abs(sum.Size-1000) > 1e-9 {
		t.Errorf("size = %g, want 1000", sum.Size)
	}
	if math.Abs(sum.Sum-3000) > 1e-6 {
		t.Errorf("sum = %g, want 3000", sum.Sum)
	}
}

func TestDecodeSummaryZeroIndicator(t *testing.T) {
	s := SummarySchema()
	sum, err := DecodeSummary(s, State{1, 1, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(sum.Size) || !math.IsNaN(sum.Sum) {
		t.Errorf("leaderless decode: size=%g sum=%g, want NaN", sum.Size, sum.Sum)
	}
}

func TestDecodeSummaryVarianceClamped(t *testing.T) {
	s := SummarySchema()
	// Rounding can push E[a²] − E[a]² slightly negative; must clamp.
	sum, err := DecodeSummary(s, State{2, 3.999999999, 2, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Variance < 0 {
		t.Errorf("variance = %g, want clamped ≥ 0", sum.Variance)
	}
}

func TestDecodeSummaryErrors(t *testing.T) {
	s := SummarySchema()
	if _, err := DecodeSummary(s, State{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := DecodeSummary(AverageSchema(), State{1}); err == nil {
		t.Error("non-summary schema accepted")
	}
}

func TestSizeEstimate(t *testing.T) {
	if got := SizeEstimate(0.01); math.Abs(got-100) > 1e-9 {
		t.Errorf("SizeEstimate(0.01) = %g", got)
	}
	if !math.IsNaN(SizeEstimate(0)) || !math.IsNaN(SizeEstimate(-1)) {
		t.Error("non-positive indicator should estimate NaN")
	}
}

// testNetwork runs the Figure 1 protocol for a schema on the
// simulation kernel: node i's state is row i of the kernel's field
// columns, and each cycle every node exchanges with a uniformly random
// other node (GETPAIR_SEQ dynamics).
type testNetwork struct {
	schema *Schema
	kern   *sim.Kernel
	values []float64 // the local values a_i
}

// newTestNetwork builds n nodes whose local values are value(i) and
// whose states the schema initializes from them.
func newTestNetwork(schema *Schema, n int, value func(i int) float64, rng *xrand.Rand) (*testNetwork, error) {
	ops := make([]sim.Op, schema.Len())
	for f := range ops {
		switch schema.Agg(f) {
		case Min:
			ops[f] = sim.OpMin
		case Max:
			ops[f] = sim.OpMax
		default:
			ops[f] = sim.OpAvg
		}
	}
	kern, err := sim.New(sim.Config{Size: n, Ops: ops, RNG: rng})
	if err != nil {
		return nil, err
	}
	nw := &testNetwork{schema: schema, kern: kern, values: make([]float64, n)}
	for i := range nw.values {
		nw.values[i] = value(i)
		for f, x := range schema.InitState(nw.values[i]) {
			kern.Column(f)[i] = x
		}
	}
	return nw, nil
}

func (nw *testNetwork) Cycle() { nw.kern.Cycle() }

// State returns a copy of node i's approximations.
func (nw *testNetwork) State(i int) State {
	st := make(State, nw.schema.Len())
	for f := range st {
		st[f] = nw.kern.Column(f)[i]
	}
	return st
}

// FieldValues returns a copy of every node's approximation of the named
// field.
func (nw *testNetwork) FieldValues(name string) ([]float64, error) {
	idx, err := nw.schema.Index(name)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), nw.kern.Column(idx)...), nil
}

// FieldVariance returns the empirical variance (paper eq. 3) of the
// named field's approximations.
func (nw *testNetwork) FieldVariance(name string) (float64, error) {
	vals, err := nw.FieldValues(name)
	if err != nil {
		return 0, err
	}
	return stats.Variance(vals), nil
}

// TrueMean returns the mean of the local values.
func (nw *testNetwork) TrueMean() float64 { return stats.Mean(nw.values) }

func TestNetworkConvergesToTrueMean(t *testing.T) {
	rng := xrand.New(300)
	nw, err := newTestNetwork(AverageSchema(), 500, func(i int) float64 { return float64(i) }, rng)
	if err != nil {
		t.Fatal(err)
	}
	trueMean := nw.TrueMean()
	for c := 0; c < 30; c++ {
		nw.Cycle()
	}
	vals, err := nw.FieldValues("avg")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if math.Abs(v-trueMean) > 1e-6*math.Max(1, math.Abs(trueMean)) {
			t.Fatalf("node %d estimate %g, want %g", i, v, trueMean)
		}
	}
}

func TestNetworkSummaryConverges(t *testing.T) {
	rng := xrand.New(301)
	schema := SummarySchema()
	nw, err := newTestNetwork(schema, 256, func(i int) float64 { return float64(i%7) + 1 }, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Elect node 0 as the size leader.
	idx, err := schema.Index("size")
	if err != nil {
		t.Fatal(err)
	}
	nw.kern.Column(idx)[0] = 1
	for c := 0; c < 40; c++ {
		nw.Cycle()
	}
	sum, err := DecodeSummary(schema, nw.State(17))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Mean-nw.TrueMean()) > 1e-6 {
		t.Errorf("mean = %g, want %g", sum.Mean, nw.TrueMean())
	}
	if sum.Min != 1 || sum.Max != 7 {
		t.Errorf("min/max = %g/%g, want 1/7", sum.Min, sum.Max)
	}
	if math.Abs(sum.Size-256) > 1 {
		t.Errorf("size estimate = %g, want ≈ 256", sum.Size)
	}
}

func TestNetworkVarianceReductionRate(t *testing.T) {
	// The cycle-driven network implements GETPAIR_SEQ dynamics; its
	// per-cycle variance reduction must sit near 1/(2√e).
	rng := xrand.New(302)
	var acc stats.Running
	for run := 0; run < 10; run++ {
		nw, err := newTestNetwork(AverageSchema(), 2000, func(int) float64 { return rng.NormFloat64() }, rng)
		if err != nil {
			t.Fatal(err)
		}
		before, err := nw.FieldVariance("avg")
		if err != nil {
			t.Fatal(err)
		}
		nw.Cycle()
		after, _ := nw.FieldVariance("avg")
		acc.Add(after / before)
	}
	if got := acc.Mean(); got < 0.27 || got > 0.33 {
		t.Fatalf("network one-cycle reduction = %.4f, want ≈ 0.30", got)
	}
}

func TestNetworkMassConservation(t *testing.T) {
	rng := xrand.New(303)
	nw, err := newTestNetwork(AverageSchema(), 200, func(int) float64 { return rng.NormFloat64() }, rng)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := nw.FieldValues("avg")
	sumBefore := stats.Sum(before)
	for c := 0; c < 10; c++ {
		nw.Cycle()
	}
	after, _ := nw.FieldValues("avg")
	if diff := math.Abs(stats.Sum(after) - sumBefore); diff > 1e-9 {
		t.Fatalf("sum drifted by %g", diff)
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema with no fields did not panic")
		}
	}()
	MustSchema()
}
