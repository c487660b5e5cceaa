package repro

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/scenario"
)

// run executes spec through Run with a background context.
func run(spec scenario.Spec) (*Result, error) { return Run(context.Background(), spec) }

func TestSimulateDefaults(t *testing.T) {
	res, err := run(scenario.Spec{Size: 1000, Seed: scenario.RawSeed(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variances) != 31 { // default 30 cycles + initial
		t.Fatalf("got %d variance points", len(res.Variances))
	}
	if res.Variances[len(res.Variances)-1] > 1e-10*res.Variances[0] {
		t.Fatal("default simulation did not converge")
	}
	want, _ := TheoreticalRate("seq")
	if math.Abs(res.ReductionRate-want) > 0.03 {
		t.Fatalf("reduction rate %.4f, want ≈ %.4f", res.ReductionRate, want)
	}
	if len(res.Values) != 1000 {
		t.Fatalf("final vector has %d entries", len(res.Values))
	}
}

func TestSimulateMassConservation(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i)
	}
	res, err := run(scenario.Spec{Size: 100, Values: values, Cycles: 40, Seed: scenario.RawSeed(2)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FinalMean-49.5) > 1e-9 {
		t.Fatalf("final mean %g, want 49.5", res.FinalMean)
	}
	// Every node's approximation converged to the true average (0.3⁴⁰ of
	// the initial spread is far below the 1e-6 check).
	for i, v := range res.Values {
		if math.Abs(v-49.5) > 1e-6 {
			t.Fatalf("node %d approximation %g", i, v)
		}
	}
}

func TestSimulateSelectorAndTopologyOptions(t *testing.T) {
	for _, sel := range []scenario.Selector{scenario.SelectorPM, scenario.SelectorRand, scenario.SelectorSeq, scenario.SelectorPMRand} {
		if _, err := run(scenario.Spec{Size: 500, Selector: sel, Cycles: 3, Seed: scenario.RawSeed(3)}); err != nil {
			t.Errorf("selector %s: %v", sel, err)
		}
	}
	for _, topo := range []scenario.Topology{
		scenario.TopologyComplete, scenario.TopologyKRegular, scenario.TopologyView,
		scenario.TopologyRing, scenario.TopologySmallWorld, scenario.TopologyScaleFree,
	} {
		if _, err := run(scenario.Spec{Size: 500, Topology: topo, Cycles: 3, Seed: scenario.RawSeed(4)}); err != nil {
			t.Errorf("topology %s: %v", topo, err)
		}
	}
}

func TestSimulateSharded(t *testing.T) {
	// The sharded executor must converge at the seq rate, conserve
	// mass, and — with the pm selector — reproduce the sequential
	// trajectory bit for bit.
	res, err := run(scenario.Spec{Size: 2000, Shards: 4, Cycles: 20, Seed: scenario.RawSeed(6)})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := TheoreticalRate("seq")
	if math.Abs(res.ReductionRate-want) > 0.03 {
		t.Fatalf("sharded reduction rate %.4f, want ≈ %.4f", res.ReductionRate, want)
	}
	seqPM, err := run(scenario.Spec{Size: 2000, Selector: scenario.SelectorPM, Cycles: 10, Seed: scenario.RawSeed(7)})
	if err != nil {
		t.Fatal(err)
	}
	shardPM, err := run(scenario.Spec{Size: 2000, Selector: scenario.SelectorPM, Shards: 4, Cycles: 10, Seed: scenario.RawSeed(7)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqPM.Variances {
		if seqPM.Variances[i] != shardPM.Variances[i] {
			t.Fatalf("pm cycle %d: sharded %g vs sequential %g", i, shardPM.Variances[i], seqPM.Variances[i])
		}
	}
	shardRand, err := run(scenario.Spec{Size: 2000, Selector: scenario.SelectorRand, Shards: 4, Cycles: 20, Seed: scenario.RawSeed(9)})
	if err != nil {
		t.Fatal(err)
	}
	wantRand, _ := TheoreticalRate("rand")
	if math.Abs(shardRand.ReductionRate-wantRand) > 0.03 {
		t.Fatalf("sharded rand reduction rate %.4f, want ≈ %.4f", shardRand.ReductionRate, wantRand)
	}
	if _, err := run(scenario.Spec{Size: 500, Shards: 4, Topology: scenario.TopologyRing}); err == nil {
		t.Error("sharded non-complete topology accepted")
	}
	if _, err := run(scenario.Spec{Size: 500, Shards: AutoShards, Cycles: 2, Seed: scenario.RawSeed(8)}); err != nil {
		t.Errorf("AutoShards rejected: %v", err)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := run(scenario.Spec{Size: 1}); err == nil {
		t.Error("size 1 accepted")
	}
	if _, err := run(scenario.Spec{Size: 100, Selector: scenario.Selector(99)}); err == nil {
		t.Error("unknown selector accepted")
	}
	if _, err := run(scenario.Spec{Size: 100, Topology: scenario.Topology(99)}); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestSimulateWithLossStillConverges(t *testing.T) {
	res, err := run(scenario.Spec{Size: 1000, LossProb: 0.2, Cycles: 30, Seed: scenario.RawSeed(5)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Variances[30] > 1e-6*res.Variances[0] {
		t.Fatalf("lossy run did not converge: ratio %g", res.Variances[30]/res.Variances[0])
	}
	lossless, _ := run(scenario.Spec{Size: 1000, Cycles: 30, Seed: scenario.RawSeed(5)})
	if res.ReductionRate <= lossless.ReductionRate {
		t.Fatal("loss did not slow convergence")
	}
}

func TestTheoreticalRateFacade(t *testing.T) {
	if r, ok := TheoreticalRate("pm"); !ok || r != 0.25 {
		t.Fatalf("pm rate = %g, %v", r, ok)
	}
	if _, ok := TheoreticalRate("nope"); ok {
		t.Fatal("unknown selector ok")
	}
}

func TestClusterQuickstartFlow(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{
		Size:         16,
		Schema:       NewAverageSchema(),
		Value:        func(i int) float64 { return float64(i) },
		CycleLength:  2 * time.Millisecond,
		ReplyTimeout: 200 * time.Millisecond,
		Seed:         6,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start(context.Background())
	defer cluster.Stop()
	if _, ok, err := cluster.WaitConverged("avg", 1e-6, 5*time.Second); err != nil || !ok {
		t.Fatalf("converged=%v err=%v", ok, err)
	}
	est, err := cluster.Nodes()[0].Estimate("avg")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-7.5) > 0.1 {
		t.Fatalf("estimate %g, want ≈ 7.5", est)
	}
}

func TestSummarySchemaEndToEnd(t *testing.T) {
	schema := NewSummarySchema()
	st := schema.InitState(3)
	st2 := schema.InitState(5)
	merged := schema.Merge(st, st2)
	sum, err := DecodeSummary(schema, merged)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mean != 4 || sum.Min != 3 || sum.Max != 5 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestEstimateSizeUnderChurnSmall(t *testing.T) {
	res, err := run(scenario.Spec{
		Size:   500,
		Cycles: 150,
		Churn: &scenario.ChurnSpec{
			Model: "oscillating", Min: 450, Max: 550, Period: 100, Fluctuation: 5,
		},
		SizeEstimation: &scenario.SizeEstimationSpec{EpochCycles: 30, Instances: 1},
		Seed:           scenario.RawSeed(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 5 {
		t.Fatalf("got %d epochs", len(res.Epochs))
	}
	for _, r := range res.Epochs {
		relErr := math.Abs(r.EstimateMean-float64(r.SizeAtStart)) / float64(r.SizeAtStart)
		if relErr > 0.2 {
			t.Errorf("epoch %d: estimate %.0f vs %d", r.Epoch, r.EstimateMean, r.SizeAtStart)
		}
	}
}

// TestGossipSamplerBootstrap: the public constructor still needs a
// seed other than self, although the internal one accepts an empty
// view for a lone TCP node.
func TestGossipSamplerBootstrap(t *testing.T) {
	if _, err := NewGossipSampler("self", 5, nil); err != membership.ErrNoPeers {
		t.Fatalf("err = %v, want ErrNoPeers", err)
	}
	if _, err := NewGossipSampler("self", 5, []string{"self"}); err != membership.ErrNoPeers {
		t.Fatalf("self-only seed err = %v, want ErrNoPeers", err)
	}
}

func TestTCPNodeFacade(t *testing.T) {
	epA, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sA, err := NewStaticSampler([]string{epB.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	// One node per runtime, each on its own endpoint: b's view learns a
	// from its seed and then from a's traffic.
	open := func(ep Endpoint, sampler func(self string) (Sampler, error), value float64, wait WaitPolicy, seed uint64) *Node {
		rt, err := NewRuntime(RuntimeConfig{
			Size:      1,
			Schema:    NewAverageSchema(),
			Value:     func(int) float64 { return value },
			Endpoints: []Endpoint{ep},
			Samplers: func(_ int, self string, _ []string) (Sampler, error) {
				return sampler(self)
			},
			CycleLength: 5 * time.Millisecond, ReplyTimeout: 500 * time.Millisecond, Wait: wait, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.Start(context.Background())
		t.Cleanup(rt.Stop)
		return rt.Nodes()[0]
	}
	a := open(epA, func(string) (Sampler, error) { return sA, nil }, 2, ConstantWait, 1)
	b := open(epB, func(self string) (Sampler, error) {
		return NewGossipSampler(self, 4, []string{epA.Addr()})
	}, 4, ExponentialWait, 2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		ea, _ := a.Estimate("avg")
		eb, _ := b.Estimate("avg")
		if math.Abs(ea-3) < 1e-9 && math.Abs(eb-3) < 1e-9 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("TCP facade pair stuck at %g / %g", ea, eb)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSimulateAsyncWaitingPolicies(t *testing.T) {
	rate := func(wait scenario.Wait) float64 {
		res, err := run(scenario.Spec{
			Size:   5000,
			Wait:   wait,
			Cycles: 10,
			Seed:   scenario.RawSeed(20),
		})
		if err != nil {
			t.Fatal(err)
		}
		first, last := res.Variances[0], res.Variances[len(res.Variances)-1]
		return math.Pow(last/first, 0.1)
	}
	constant, exponential := rate(scenario.WaitConstant), rate(scenario.WaitExponential)
	seqRate, _ := TheoreticalRate("seq")
	randRate, _ := TheoreticalRate("rand")
	if math.Abs(constant-seqRate) > 0.03 {
		t.Errorf("constant-wait rate %.4f, want ≈ %.4f", constant, seqRate)
	}
	if math.Abs(exponential-randRate) > 0.03 {
		t.Errorf("exponential-wait rate %.4f, want ≈ %.4f", exponential, randRate)
	}
}

func TestSimulateAsyncValidation(t *testing.T) {
	if _, err := run(scenario.Spec{Size: 1, Wait: scenario.WaitConstant}); err == nil {
		t.Error("size 1 accepted")
	}
	if _, err := run(scenario.Spec{Size: 100, Wait: scenario.WaitConstant, Topology: scenario.Topology(99)}); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestMomentsFacade(t *testing.T) {
	schema, err := NewMomentsSchema(4)
	if err != nil {
		t.Fatal(err)
	}
	a := schema.InitState(2)
	b := schema.InitState(4)
	merged := schema.Merge(a, b)
	m, err := DecodeMoments(schema, merged)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mean != 3 {
		t.Errorf("mean = %g, want 3", m.Mean)
	}
	if want := 10.0 - 9.0; math.Abs(m.Variance-want) > 1e-12 {
		t.Errorf("variance = %g, want %g", m.Variance, want)
	}
	if _, err := NewMomentsSchema(1); err == nil {
		t.Error("order 1 accepted")
	}
}

func TestGeometricFacade(t *testing.T) {
	schema := NewGeometricSchema()
	merged := schema.Merge(schema.InitState(2), schema.InitState(8))
	gm, err := DecodeGeometricMean(schema, merged)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gm-4) > 1e-12 {
		t.Fatalf("geometric mean = %g, want 4", gm)
	}
}
