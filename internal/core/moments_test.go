package core

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestMomentsSchemaValidation(t *testing.T) {
	for _, order := range []int{0, 1, 9} {
		if _, err := MomentsSchema(order); err == nil {
			t.Errorf("order %d accepted", order)
		}
	}
	s, err := MomentsSchema(4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("schema has %d fields", s.Len())
	}
}

func TestMomentsInitPowers(t *testing.T) {
	s, err := MomentsSchema(3)
	if err != nil {
		t.Fatal(err)
	}
	st := s.InitState(2)
	want := State{2, 4, 8}
	for i := range want {
		if st[i] != want[i] {
			t.Fatalf("init = %v, want %v", st, want)
		}
	}
}

func TestDecodeMomentsGaussian(t *testing.T) {
	// Gossip the moments of iid N(5, 2²) values across a network; the
	// decoded skewness must be ≈ 0 and kurtosis ≈ 3.
	rng := xrand.New(400)
	schema, err := MomentsSchema(4)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := newTestNetwork(schema, 4000, func(int) float64 {
		return 5 + 2*rng.NormFloat64()
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 40; c++ {
		nw.Cycle()
	}
	m, err := DecodeMoments(schema, nw.State(0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Mean-5) > 0.15 {
		t.Errorf("mean = %g, want ≈ 5", m.Mean)
	}
	if math.Abs(m.Variance-4) > 0.4 {
		t.Errorf("variance = %g, want ≈ 4", m.Variance)
	}
	if math.Abs(m.Skewness) > 0.2 {
		t.Errorf("skewness = %g, want ≈ 0", m.Skewness)
	}
	if math.Abs(m.Kurtosis-3) > 0.5 {
		t.Errorf("kurtosis = %g, want ≈ 3", m.Kurtosis)
	}
}

func TestDecodeMomentsSkewedDistribution(t *testing.T) {
	// Exponential(1): mean 1, variance 1, skewness 2, kurtosis 9.
	rng := xrand.New(401)
	schema, err := MomentsSchema(4)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := newTestNetwork(schema, 8000, func(int) float64 {
		return rng.ExpFloat64()
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 40; c++ {
		nw.Cycle()
	}
	m, err := DecodeMoments(schema, nw.State(0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Mean-1) > 0.05 {
		t.Errorf("mean = %g, want ≈ 1", m.Mean)
	}
	if math.Abs(m.Skewness-2) > 0.5 {
		t.Errorf("skewness = %g, want ≈ 2", m.Skewness)
	}
	if math.Abs(m.Kurtosis-9) > 3 {
		t.Errorf("kurtosis = %g, want ≈ 9", m.Kurtosis)
	}
}

func TestDecodeMomentsErrors(t *testing.T) {
	schema, err := MomentsSchema(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMoments(schema, State{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := DecodeMoments(SummarySchema(), SummarySchema().InitState(1)); err == nil {
		t.Error("non-moments schema accepted")
	}
}

func TestDecodeMomentsDegenerateVariance(t *testing.T) {
	schema, err := MomentsSchema(4)
	if err != nil {
		t.Fatal(err)
	}
	// All values identical: variance 0, skew/kurtosis defined as 0.
	st := schema.InitState(7)
	m, err := DecodeMoments(schema, st)
	if err != nil {
		t.Fatal(err)
	}
	if m.Variance != 0 || m.Skewness != 0 || m.Kurtosis != 0 {
		t.Fatalf("degenerate moments = %+v", m)
	}
}

func TestGeometricMeanConverges(t *testing.T) {
	rng := xrand.New(402)
	schema := GeometricSchema()
	// Values 1, 2, 4, 8 repeated: geometric mean = (1·2·4·8)^{1/4} = 2√2.
	nw, err := newTestNetwork(schema, 400, func(i int) float64 {
		return float64(int(1) << (i % 4))
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 30; c++ {
		nw.Cycle()
	}
	gm, err := DecodeGeometricMean(schema, nw.State(5))
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * math.Sqrt2
	if math.Abs(gm-want) > 1e-6 {
		t.Fatalf("geometric mean = %g, want %g", gm, want)
	}
}

func TestGeometricSchemaRejectsNonPositive(t *testing.T) {
	schema := GeometricSchema()
	st := schema.InitState(-1)
	if !math.IsNaN(st[0]) {
		t.Fatal("negative value did not poison the instance")
	}
	gm, err := DecodeGeometricMean(schema, st)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(gm) {
		t.Fatalf("decoded %g from poisoned state, want NaN", gm)
	}
}

func TestDecodeGeometricMeanErrors(t *testing.T) {
	if _, err := DecodeGeometricMean(AverageSchema(), State{1}); err == nil {
		t.Error("non-geometric schema accepted")
	}
	if _, err := DecodeGeometricMean(GeometricSchema(), State{}); err == nil {
		t.Error("empty state accepted")
	}
}
