package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/scenario"
)

// fpBits renders a float's exact bit pattern.
func fpBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// fpHash folds a float vector's exact bit patterns into an FNV-1a hash.
func fpHash(vs []float64) string {
	h := uint64(1469598103934665603)
	for _, v := range vs {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}

// TestRunReproducesLegacySimulate pins Run to bit-exact outputs
// captured from the pre-redesign tree (the historical avg.Runner,
// sharded-kernel and event-simulator implementations behind the
// retired Simulate and SimulateAsync), for every selector, several
// topologies, loss, supplied values, both executors and both waiting
// policies. Every spec carries scenario.RawSeed, the seed derivation
// those entry points used, so the trajectories stay byte-identical per
// fixed seed.
func TestRunReproducesLegacySimulate(t *testing.T) {
	raw := scenario.RawSeed
	cases := []struct {
		name                  string
		spec                  scenario.Spec
		varHash, mean, values string
		exchanges             int // wait mode only
	}{
		{"seq", scenario.Spec{Size: 200, Cycles: 8, Seed: raw(42)},
			"8d95e947df84200f", "bf99ee9f3cb6ca24", "9ba6cf85fa1bdd67", 0},
		{"pm", scenario.Spec{Size: 100, Selector: scenario.SelectorPM, Cycles: 5, Seed: raw(9)},
			"b8cf08996e4f27e6", "3fc0a7e6049fc531", "a4cd386fbf0ea3bf", 0},
		{"rand", scenario.Spec{Size: 150, Selector: scenario.SelectorRand, Cycles: 6, Seed: raw(11)},
			"7666694a4055b065", "3facd937fc35ae68", "b3d9000baf69baac", 0},
		{"pmrand", scenario.Spec{Size: 80, Selector: scenario.SelectorPMRand, Cycles: 4, Seed: raw(12)},
			"c96d93cfc2b403c8", "3faea7ea99e56618", "61a488d9fc4102a1", 0},
		{"kregular", scenario.Spec{Size: 300, Topology: scenario.TopologyKRegular, ViewSize: 10, Cycles: 7, Seed: raw(13)},
			"dc487e3eed30baa2", "3f930023f1ebcf62", "a717ce1bc26022a4", 0},
		{"ring-loss", scenario.Spec{Size: 120, Topology: scenario.TopologyRing, LossProb: 0.2, Cycles: 5, Seed: raw(14)},
			"7d93196cd2dd2cc4", "bf96e2ffcfd3331d", "8283761748b08f9b", 0},
		{"sharded-seq", scenario.Spec{Size: 512, Shards: 4, Cycles: 5, Seed: raw(3)},
			"c5245e4c22dbc6d8", "bfba5120058f6fd0", "8da15842d40d6779", 0},
		{"sharded-pm", scenario.Spec{Size: 512, Selector: scenario.SelectorPM, Shards: 4, Cycles: 5, Seed: raw(3)},
			"794dff1c3a88c1e4", "bfba5120058f6fcd", "5ed2d6e5fb84c53b", 0},
		{"scalefree", scenario.Spec{Size: 200, Topology: scenario.TopologyScaleFree, Cycles: 5, Seed: raw(16)},
			"0267f7a80d0d581f", "3f8f3cc576defb5d", "ec41c8471a838a05", 0},
		{"wait-constant", scenario.Spec{Size: 200, Wait: scenario.WaitConstant, Cycles: 6, Seed: raw(17)},
			"63f2b6f419f16825", "3fb10dbb25e3eea3", "70a9e0c18e752762", 1200},
		{"wait-exponential", scenario.Spec{Size: 200, Wait: scenario.WaitExponential, Cycles: 6, Seed: raw(18)},
			"7ba3b11756334b1b", "3f6e741166ab8db6", "6b26d7d7cae4d2c3", 1225},
		{"wait-loss", scenario.Spec{Size: 150, Wait: scenario.WaitExponential, LossProb: 0.3, Cycles: 5, Seed: raw(19)},
			"5f115c762708eef1", "3fc3c886d0aa41c0", "758675634469654b", 557},
		{"wait-kregular", scenario.Spec{Size: 300, Topology: scenario.TopologyKRegular, ViewSize: 10, Wait: scenario.WaitConstant, Cycles: 5, Seed: raw(20)},
			"77b7f6f9c0f08727", "bfa0a6e51ef0e493", "1c6ed5a901ad7b98", 1500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, probe := range []struct {
				what, got, want string
			}{
				{"variances", fpHash(res.Variances), tc.varHash},
				{"mean", fpBits(res.FinalMean), tc.mean},
				{"values", fpHash(res.Values), tc.values},
			} {
				if probe.got != probe.want {
					t.Errorf("%s = %s, want %s (pre-redesign capture)", probe.what, probe.got, probe.want)
				}
			}
			if wantSharded := tc.spec.Shards != 0; res.Sharded != wantSharded {
				t.Errorf("Sharded = %v, want %v", res.Sharded, wantSharded)
			}
			if tc.spec.Wait != scenario.WaitNone && res.Exchanges != tc.exchanges {
				t.Errorf("exchanges = %d, want %d", res.Exchanges, tc.exchanges)
			}
		})
	}
	// Supplied values skip the normal draws.
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i * i)
	}
	res, err := Run(context.Background(), scenario.Spec{Size: 64, Values: vals, Cycles: 5, Seed: raw(15)})
	if err != nil {
		t.Fatal(err)
	}
	if got := fpHash(res.Values); got != "73d8f2147b030325" {
		t.Errorf("supplied-values run = %s, want 73d8f2147b030325", got)
	}
}

// TestRunReproducesLegacySizeEstimation pins the §4 size-estimation
// path to bit-exact per-epoch reports captured from the pre-redesign
// tree (the retired EstimateSizeUnderChurn).
func TestRunReproducesLegacySizeEstimation(t *testing.T) {
	spec := scenario.Spec{
		Size:   500,
		Cycles: 150,
		Churn: &scenario.ChurnSpec{
			Model: "oscillating", Min: 450, Max: 550, Period: 100, Fluctuation: 5,
		},
		SizeEstimation: &scenario.SizeEstimationSpec{EpochCycles: 30, Instances: 2},
		Seed:           scenario.RawSeed(7),
	}
	wantMeans := []string{
		"407e48d907a1b6df", "40808675c15953f6", "407c9749beac4a91",
		"407ca755497d7d69", "40807c4e0c49bb0b",
	}
	wantSizes := []int{548, 473, 468, 546, 503}

	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != len(wantMeans) {
		t.Fatalf("%d epochs, want %d", len(res.Epochs), len(wantMeans))
	}
	for i, r := range res.Epochs {
		if got := fpBits(r.EstimateMean); got != wantMeans[i] {
			t.Errorf("epoch %d mean = %s, want %s", i, got, wantMeans[i])
		}
		if r.SizeAtEnd != wantSizes[i] {
			t.Errorf("epoch %d size = %d, want %d", i, r.SizeAtEnd, wantSizes[i])
		}
	}
}

// TestAutoShardsFallsBackToSequential: AutoShards is a preference —
// unshardable combinations run sequentially with Sharded=false instead
// of erroring — while an explicit shard count still fails loudly.
func TestAutoShardsFallsBackToSequential(t *testing.T) {
	ctx := context.Background()
	for name, spec := range map[string]scenario.Spec{
		"size-estimation": {Size: 400, Cycles: 4, SizeEstimation: &scenario.SizeEstimationSpec{EpochCycles: 2}, Shards: AutoShards, Seed: 3},
		"ring-topology":   {Size: 400, Cycles: 2, Topology: scenario.TopologyRing, Shards: AutoShards, Seed: 2},
		"wait-mode":       {Size: 400, Cycles: 2, Wait: scenario.WaitConstant, Shards: AutoShards, Seed: 4},
	} {
		res, err := Run(ctx, spec)
		if err != nil {
			t.Errorf("%s: AutoShards did not fall back: %v", name, err)
			continue
		}
		if res.Sharded {
			t.Errorf("%s: reported sharded execution for an unshardable combination", name)
		}
		if res.Spec.Shards != 0 {
			t.Errorf("%s: normalized spec kept shards=%d", name, res.Spec.Shards)
		}
	}
	// Shardable combinations still shard under an explicit count (and
	// under AutoShards whenever GOMAXPROCS > 1 — not asserted here so
	// single-core CI stays green). Every built-in selector shards.
	for name, spec := range map[string]scenario.Spec{
		"seq":    {Size: 4000, Cycles: 2, Shards: 4, Seed: 6},
		"rand":   {Size: 4000, Cycles: 2, Selector: scenario.SelectorRand, Shards: 4, Seed: 7},
		"pmrand": {Size: 4000, Cycles: 2, Selector: scenario.SelectorPMRand, Shards: 4, Seed: 8},
	} {
		if res, err := Run(ctx, spec); err != nil {
			t.Errorf("%s: explicit 4-shard spec: %v", name, err)
		} else if !res.Sharded {
			t.Errorf("explicit 4-shard %s spec did not run sharded", name)
		}
	}
	// ...and explicit shard counts on unsupported combinations error.
	if _, err := Run(ctx, scenario.Spec{Size: 401, Cycles: 2, Selector: scenario.SelectorPMRand, Shards: 4}); err == nil {
		t.Error("explicit shards with pmrand selector at odd size accepted")
	}
}

// TestRunGridStreamsAndCollects: RunGrid returns collected rows by
// default and streams through SweepOptions.Out when given one.
func TestRunGridStreamsAndCollects(t *testing.T) {
	grid := scenario.Grid{
		Base: scenario.Spec{Name: "grid", Size: 100, Cycles: 2, Seed: 4},
		Axes: []scenario.Axis{{Param: "selector", Strings: []string{"seq", "rand"}}},
	}
	rows, err := RunGrid(context.Background(), grid, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*3 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	var col scenario.Collector
	streamed, err := RunGrid(context.Background(), grid, SweepOptions{Out: &col})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != nil {
		t.Fatal("streaming mode also returned rows")
	}
	if len(col.Results()) != len(rows) {
		t.Fatalf("streamed %d rows, collected %d", len(col.Results()), len(rows))
	}
}

// TestRunCancellation: cancelling the context stops a long single run
// promptly with the context's error.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(ctx, scenario.Spec{Size: 200000, Cycles: 100000, Seed: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestRunGridCancellation: cancelling mid-sweep aborts queued and
// in-flight cells promptly.
func TestRunGridCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	grid := scenario.Grid{
		Base: scenario.Spec{Size: 100000, Cycles: 10000, Repeats: 4, Seed: 2},
		Axes: []scenario.Axis{{Param: "loss_prob", Floats: []float64{0, 0.1, 0.2, 0.3}}},
	}
	start := time.Now()
	_, err := RunGrid(ctx, grid, SweepOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("sweep cancellation took %v", elapsed)
	}
}

// TestRunSizeEstimationCancellation: the §4 path honors the context
// too.
func TestRunSizeEstimationCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, scenario.Spec{
		Size:           100000,
		Cycles:         30000,
		SizeEstimation: &scenario.SizeEstimationSpec{EpochCycles: 30},
		Seed:           3,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}
