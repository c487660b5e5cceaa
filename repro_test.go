package repro

import (
	"context"
	"math"
	"testing"
	"time"
)

func TestSimulateDefaults(t *testing.T) {
	res, err := Simulate(SimulationConfig{Size: 1000, Seed: 1})
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
	res, err := Simulate(SimulationConfig{Size: 100, Values: values, Cycles: 40, Seed: 2})
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
	for _, sel := range []string{"pm", "rand", "seq", "pmrand"} {
		if _, err := Simulate(SimulationConfig{Size: 500, Selector: sel, Cycles: 3, Seed: 3}); err != nil {
			t.Errorf("selector %s: %v", sel, err)
		}
	}
	for _, topo := range []string{"complete", "kregular", "view", "ring", "smallworld", "scalefree"} {
		if _, err := Simulate(SimulationConfig{Size: 500, Topology: topo, Cycles: 3, Seed: 4}); err != nil {
			t.Errorf("topology %s: %v", topo, err)
		}
	}
}

func TestSimulateSharded(t *testing.T) {
	// The sharded executor must converge at the seq rate, conserve
	// mass, and — with the pm selector — reproduce the sequential
	// trajectory bit for bit.
	res, err := Simulate(SimulationConfig{Size: 2000, Shards: 4, Cycles: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := TheoreticalRate("seq")
	if math.Abs(res.ReductionRate-want) > 0.03 {
		t.Fatalf("sharded reduction rate %.4f, want ≈ %.4f", res.ReductionRate, want)
	}
	seqPM, err := Simulate(SimulationConfig{Size: 2000, Selector: "pm", Cycles: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	shardPM, err := Simulate(SimulationConfig{Size: 2000, Selector: "pm", Shards: 4, Cycles: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqPM.Variances {
		if seqPM.Variances[i] != shardPM.Variances[i] {
			t.Fatalf("pm cycle %d: sharded %g vs sequential %g", i, shardPM.Variances[i], seqPM.Variances[i])
		}
	}
	shardRand, err := Simulate(SimulationConfig{Size: 2000, Selector: "rand", Shards: 4, Cycles: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	wantRand, _ := TheoreticalRate("rand")
	if math.Abs(shardRand.ReductionRate-wantRand) > 0.03 {
		t.Fatalf("sharded rand reduction rate %.4f, want ≈ %.4f", shardRand.ReductionRate, wantRand)
	}
	if _, err := Simulate(SimulationConfig{Size: 500, Shards: 4, Topology: "ring"}); err == nil {
		t.Error("sharded non-complete topology accepted")
	}
	if _, err := Simulate(SimulationConfig{Size: 500, Shards: AutoShards, Cycles: 2, Seed: 8}); err != nil {
		t.Errorf("AutoShards rejected: %v", err)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(SimulationConfig{Size: 1}); err == nil {
		t.Error("size 1 accepted")
	}
	if _, err := Simulate(SimulationConfig{Size: 100, Selector: "bogus"}); err == nil {
		t.Error("unknown selector accepted")
	}
	if _, err := Simulate(SimulationConfig{Size: 100, Topology: "bogus"}); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestSimulateWithLossStillConverges(t *testing.T) {
	res, err := Simulate(SimulationConfig{Size: 1000, LossProbability: 0.2, Cycles: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Variances[30] > 1e-6*res.Variances[0] {
		t.Fatalf("lossy run did not converge: ratio %g", res.Variances[30]/res.Variances[0])
	}
	lossless, _ := Simulate(SimulationConfig{Size: 1000, Cycles: 30, Seed: 5})
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
	cfg := SizeEstimationConfig{
		MinSize:           450,
		MaxSize:           550,
		OscillationPeriod: 100,
		Fluctuation:       5,
		EpochCycles:       30,
		TotalCycles:       150,
		Instances:         1,
		Seed:              7,
	}
	reports, err := EstimateSizeUnderChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 5 {
		t.Fatalf("got %d epochs", len(reports))
	}
	for _, r := range reports {
		relErr := math.Abs(r.EstimateMean-float64(r.SizeAtStart)) / float64(r.SizeAtStart)
		if relErr > 0.2 {
			t.Errorf("epoch %d: estimate %.0f vs %d", r.Epoch, r.EstimateMean, r.SizeAtStart)
		}
	}
}

func TestDefaultSizeEstimationConfigMatchesPaper(t *testing.T) {
	cfg := DefaultSizeEstimationConfig()
	if cfg.MinSize != 90000 || cfg.MaxSize != 110000 {
		t.Errorf("size band %d..%d", cfg.MinSize, cfg.MaxSize)
	}
	if cfg.EpochCycles != 30 || cfg.TotalCycles != 1000 || cfg.Fluctuation != 100 {
		t.Errorf("cfg = %+v", cfg)
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
	run := func(exponential bool) float64 {
		res, err := SimulateAsync(AsyncSimulationConfig{
			Size:        5000,
			Exponential: exponential,
			Cycles:      10,
			Seed:        20,
		})
		if err != nil {
			t.Fatal(err)
		}
		first, last := res.Variances[0], res.Variances[len(res.Variances)-1]
		return math.Pow(last/first, 0.1)
	}
	constant, exponential := run(false), run(true)
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
	if _, err := SimulateAsync(AsyncSimulationConfig{Size: 1}); err == nil {
		t.Error("size 1 accepted")
	}
	if _, err := SimulateAsync(AsyncSimulationConfig{Size: 100, Topology: "bogus"}); err == nil {
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
