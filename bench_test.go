package repro

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/xrand"
	"repro/scenario"
)

// Benchmarks regenerate every figure of the paper at bench scale (sizes
// reduced ~10× so `go test -bench .` completes in minutes; run
// `cmd/figures -scale paper` for the full-size sweeps). Custom metrics
// carry the reproduction numbers:
//
//	reduction     one-cycle variance reduction σ₁²/σ₀² (Figure 3a)
//	rate          geometric-mean per-cycle reduction (Figure 3b)
//	theory-delta  |measured − closed form|
//	relerr        mean relative error of the size estimate (Figure 4)
//	cycles        cycles to reach the §5 accuracy target

// benchAVG loads values into a single-average kernel that iterates AVG
// (Figure 2) with cfg's selector on cfg's overlay.
func benchAVG(b *testing.B, cfg sim.Config, values []float64) *sim.Kernel {
	b.Helper()
	kern, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := kern.SetValues(0, values); err != nil {
		b.Fatal(err)
	}
	return kern
}

// benchGaussian returns a fresh iid standard normal vector.
func benchGaussian(n int, rng *xrand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// BenchmarkFig3a measures the one-cycle variance reduction for each
// selector × topology combination the paper plots in Figure 3(a).
func BenchmarkFig3a(b *testing.B) {
	const n, view = 10000, 20
	for _, sel := range []string{"rand", "seq"} {
		for _, topo := range []topology.Kind{topology.KindComplete, topology.KindKRegular} {
			b.Run(fmt.Sprintf("selector=%s/topology=%s/n=%d", sel, topo, n), func(b *testing.B) {
				rng := xrand.New(42)
				// One overlay per sub-bench: graph construction is the
				// dominant setup cost and does not affect the measured
				// reduction statistics.
				g, err := topology.Build(topo, n, view, rng)
				if err != nil {
					b.Fatal(err)
				}
				var acc stats.Running
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					selector, err := sim.NewSelector(sel)
					if err != nil {
						b.Fatal(err)
					}
					kern := benchAVG(b, sim.Config{Graph: g, Selector: selector, RNG: rng}, benchGaussian(n, rng))
					before := stats.Variance(kern.Column(0))
					b.StartTimer()
					kern.Cycle()
					acc.Add(stats.Variance(kern.Column(0)) / before)
				}
				b.ReportMetric(acc.Mean(), "reduction")
				if theory, ok := sim.TheoreticalRate(sel); ok {
					b.ReportMetric(math.Abs(acc.Mean()-theory), "theory-delta")
				}
			})
		}
	}
}

// BenchmarkFig3b measures the geometric-mean per-cycle reduction while
// iterating AVG for 30 cycles (Figure 3(b); bench n = 20000, paper
// n = 100000 via cmd/figures).
func BenchmarkFig3b(b *testing.B) {
	const n, view, cycles = 20000, 20, 30
	for _, sel := range []string{"rand", "seq"} {
		for _, topo := range []topology.Kind{topology.KindComplete, topology.KindKRegular} {
			b.Run(fmt.Sprintf("selector=%s/topology=%s/n=%d", sel, topo, n), func(b *testing.B) {
				rng := xrand.New(43)
				g, err := topology.Build(topo, n, view, rng)
				if err != nil {
					b.Fatal(err)
				}
				var acc stats.Running
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					selector, err := sim.NewSelector(sel)
					if err != nil {
						b.Fatal(err)
					}
					kern := benchAVG(b, sim.Config{Graph: g, Selector: selector, RNG: rng}, benchGaussian(n, rng))
					b.StartTimer()
					variances := kern.Run(cycles)
					first, last := variances[0], variances[len(variances)-1]
					if first > 0 && last > 0 {
						acc.Add(math.Pow(last/first, 1/float64(cycles)))
					}
				}
				b.ReportMetric(acc.Mean(), "rate")
			})
		}
	}
}

// BenchmarkFig4 runs the size-estimation-under-churn scenario (Figure 4)
// at bench scale (9k–11k oscillation; paper runs 90k–110k).
func BenchmarkFig4(b *testing.B) {
	spec := scenario.Spec{
		Size:   10000,
		Cycles: 300,
		Churn: &scenario.ChurnSpec{
			Model: "oscillating", Min: 9000, Max: 11000, Period: 400, Fluctuation: 10,
		},
		SizeEstimation: &scenario.SizeEstimationSpec{EpochCycles: 30, Instances: 1},
	}
	var relErr stats.Running
	lostEpochs := 0
	for i := 0; i < b.N; i++ {
		spec.Seed = scenario.RawSeed(uint64(i + 1))
		res, err := Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Epochs {
			if math.IsNaN(r.EstimateMean) {
				// The single leader crashed before spreading any
				// indicator mass — the known single-instance failure
				// mode (§4); count it rather than poison the mean.
				lostEpochs++
				continue
			}
			relErr.Add(math.Abs(r.EstimateMean-float64(r.SizeAtStart)) / float64(r.SizeAtStart))
		}
	}
	b.ReportMetric(relErr.Mean(), "relerr")
	b.ReportMetric(float64(lostEpochs), "lost-epochs")
}

// BenchmarkRates reproduces the §3.3 closed-form table (E4): measured
// one-cycle reduction per selector on the complete graph versus theory.
func BenchmarkRates(b *testing.B) {
	const n = 10000
	for _, sel := range []string{"pm", "rand", "seq", "pmrand"} {
		b.Run("selector="+sel, func(b *testing.B) {
			rng := xrand.New(44)
			var acc stats.Running
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, err := topology.NewComplete(n)
				if err != nil {
					b.Fatal(err)
				}
				selector, err := sim.NewSelector(sel)
				if err != nil {
					b.Fatal(err)
				}
				kern := benchAVG(b, sim.Config{Graph: g, Selector: selector, RNG: rng}, benchGaussian(n, rng))
				before := stats.Variance(kern.Column(0))
				b.StartTimer()
				kern.Cycle()
				acc.Add(stats.Variance(kern.Column(0)) / before)
			}
			theory, _ := sim.TheoreticalRate(sel)
			b.ReportMetric(acc.Mean(), "reduction")
			b.ReportMetric(theory, "theory")
			b.ReportMetric(math.Abs(acc.Mean()-theory), "theory-delta")
		})
	}
}

// BenchmarkFig5Claim verifies the §5 efficiency claim (E5): the variance
// drops 99.9 % within ≈ ln(1000) ≈ 7 cycles even with getPair_rand.
func BenchmarkFig5Claim(b *testing.B) {
	const n = 10000
	for _, sel := range []string{"pm", "rand", "seq"} {
		b.Run("selector="+sel, func(b *testing.B) {
			rng := xrand.New(45)
			var cyclesAcc stats.Running
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, err := topology.NewComplete(n)
				if err != nil {
					b.Fatal(err)
				}
				selector, err := sim.NewSelector(sel)
				if err != nil {
					b.Fatal(err)
				}
				kern := benchAVG(b, sim.Config{Graph: g, Selector: selector, RNG: rng}, benchGaussian(n, rng))
				initial := stats.Variance(kern.Column(0))
				b.StartTimer()
				cycles := 0
				for stats.Variance(kern.Column(0)) > 1e-3*initial && cycles < 50 {
					kern.Cycle()
					cycles++
				}
				cyclesAcc.Add(float64(cycles))
			}
			b.ReportMetric(cyclesAcc.Mean(), "cycles")
		})
	}
}

// BenchmarkAblationLoss sweeps message-loss probabilities (E6): rate and
// mean drift per loss level.
func BenchmarkAblationLoss(b *testing.B) {
	const n, cycles = 5000, 15
	for _, p := range []float64{0, 0.1, 0.2, 0.4} {
		b.Run(fmt.Sprintf("loss=%.2f", p), func(b *testing.B) {
			rng := xrand.New(46)
			var rate, drift stats.Running
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, err := topology.NewComplete(n)
				if err != nil {
					b.Fatal(err)
				}
				values := benchGaussian(n, rng)
				trueMean := stats.Mean(values)
				sd := math.Sqrt(stats.Variance(values))
				var loss sim.LossModel
				if p > 0 {
					loss = sim.ReplyLoss{P: p}
				}
				kern := benchAVG(b, sim.Config{Graph: g, Selector: sim.NewSeq(), Loss: loss, RNG: rng}, values)
				b.StartTimer()
				variances := kern.Run(cycles)
				first, last := variances[0], variances[len(variances)-1]
				if first > 0 && last > 0 {
					rate.Add(math.Pow(last/first, 1/float64(cycles)))
				}
				drift.Add(math.Abs(stats.Mean(kern.Column(0))-trueMean) / sd)
			}
			b.ReportMetric(rate.Mean(), "rate")
			b.ReportMetric(drift.Mean(), "drift-sd")
		})
	}
}

// BenchmarkAblationCrash sweeps crash fractions (E6): survivors converge
// to a shifted mean; the metric is the shift in initial-stddev units.
func BenchmarkAblationCrash(b *testing.B) {
	const n, cycles = 5000, 15
	for _, f := range []float64{0, 0.1, 0.5} {
		b.Run(fmt.Sprintf("crash=%.2f", f), func(b *testing.B) {
			rng := xrand.New(47)
			var errAcc stats.Running
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				values := benchGaussian(n, rng)
				trueMean := stats.Mean(values)
				sd := math.Sqrt(stats.Variance(values))
				survivors := n - int(f*float64(n))
				perm := rng.Perm(n)
				kept := make([]float64, survivors)
				for k := 0; k < survivors; k++ {
					kept[k] = values[perm[k]]
				}
				g, err := topology.NewComplete(survivors)
				if err != nil {
					b.Fatal(err)
				}
				kern := benchAVG(b, sim.Config{Graph: g, Selector: sim.NewSeq(), RNG: rng}, kept)
				b.StartTimer()
				kern.Run(cycles)
				errAcc.Add(math.Abs(stats.Mean(kern.Column(0))-trueMean) / sd)
			}
			b.ReportMetric(errAcc.Mean(), "error-sd")
		})
	}
}

// BenchmarkAblationTopology compares the per-cycle rate across overlays —
// the sensitivity study for the paper's "random enough" assumption.
func BenchmarkAblationTopology(b *testing.B) {
	const n, view, cycles = 5000, 20, 15
	kinds := []topology.Kind{
		topology.KindComplete, topology.KindKRegular, topology.KindRandomView,
		topology.KindSmallWorld, topology.KindScaleFree, topology.KindRing,
	}
	for _, kind := range kinds {
		b.Run("topology="+string(kind), func(b *testing.B) {
			rng := xrand.New(48)
			g, err := topology.Build(kind, n, view, rng)
			if err != nil {
				b.Fatal(err)
			}
			var rate stats.Running
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				kern := benchAVG(b, sim.Config{Graph: g, Selector: sim.NewSeq(), RNG: rng}, benchGaussian(n, rng))
				b.StartTimer()
				variances := kern.Run(cycles)
				first, last := variances[0], variances[len(variances)-1]
				if first > 0 && last > 0 {
					rate.Add(math.Pow(last/first, 1/float64(cycles)))
				}
			}
			b.ReportMetric(rate.Mean(), "rate")
		})
	}
}

// BenchmarkAblationViewSize sweeps the k-regular view size — how small
// the paper's fixed view of 20 could have been.
func BenchmarkAblationViewSize(b *testing.B) {
	const n, cycles = 5000, 15
	for _, k := range []int{2, 4, 8, 20, 40} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := xrand.New(49)
			g, err := topology.NewKRegular(n, k, rng)
			if err != nil {
				b.Fatal(err)
			}
			var rate stats.Running
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				kern := benchAVG(b, sim.Config{Graph: g, Selector: sim.NewSeq(), RNG: rng}, benchGaussian(n, rng))
				b.StartTimer()
				variances := kern.Run(cycles)
				first, last := variances[0], variances[len(variances)-1]
				if first > 0 && last > 0 {
					rate.Add(math.Pow(last/first, 1/float64(cycles)))
				}
			}
			b.ReportMetric(rate.Mean(), "rate")
		})
	}
}

// BenchmarkWaitingPolicy is DESIGN.md ablation 2 at event-simulator
// scale: the waiting-time distribution maps onto the paper's selector
// regimes (constant ≈ seq's 1/(2√e), exponential ≈ rand's 1/e).
func BenchmarkWaitingPolicy(b *testing.B) {
	const n, cycles = 20000, 10
	for _, wait := range []scenario.Wait{scenario.WaitConstant, scenario.WaitExponential} {
		b.Run("wait="+wait.String(), func(b *testing.B) {
			var rate stats.Running
			for i := 0; i < b.N; i++ {
				res, err := Run(context.Background(), scenario.Spec{
					Size:   n,
					Cycles: cycles,
					Wait:   wait,
					Seed:   scenario.RawSeed(uint64(52 + i)),
				})
				if err != nil {
					b.Fatal(err)
				}
				first, last := res.Variances[0], res.Variances[len(res.Variances)-1]
				if first > 0 && last > 0 {
					rate.Add(math.Pow(last/first, 1/float64(cycles)))
				}
			}
			b.ReportMetric(rate.Mean(), "rate")
		})
	}
}

// BenchmarkCycleThroughput is the simulator's hot path: elementary
// variance-reduction steps per second at N = 100000 (one b.N unit = one
// full AVG cycle = N steps).
func BenchmarkCycleThroughput(b *testing.B) {
	const n = 100000
	rng := xrand.New(50)
	g, err := topology.NewComplete(n)
	if err != nil {
		b.Fatal(err)
	}
	kern := benchAVG(b, sim.Config{Graph: g, Selector: sim.NewSeq(), RNG: rng}, benchGaussian(n, rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.Cycle()
	}
	b.ReportMetric(float64(n), "steps/cycle")
}

// BenchmarkKernelMillionNode exercises the unified kernel's hot path —
// the sharded structure-of-arrays executor of internal/sim — with a
// 30-cycle average run at N = 10⁴, 10⁵ and 10⁶ nodes, single-shard
// versus one shard per GOMAXPROCS worker. One b.N unit is one full run
// (30·N elementary exchanges); custom metrics report the per-exchange
// cost and allocation rate, which must be ~0 in steady state (all
// kernel state is reused across cycles).
func BenchmarkKernelMillionNode(b *testing.B) {
	const cycles = 30
	shardCounts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		shardCounts = append(shardCounts, p)
	} else {
		// Single-core environment: still exercise the sharded executor.
		shardCounts = append(shardCounts, 4)
	}
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		rng := xrand.New(60)
		values := benchGaussian(n, rng)
		for _, shards := range shardCounts {
			b.Run(fmt.Sprintf("n=%d/shards=%d", n, shards), func(b *testing.B) {
				kern, err := sim.New(sim.Config{Size: n, Shards: shards, RNG: xrand.New(61)})
				if err != nil {
					b.Fatal(err)
				}
				// Warm-up cycle so bucket capacities and goroutine stacks
				// are in steady state before measuring.
				if err := kern.SetValues(0, values); err != nil {
					b.Fatal(err)
				}
				kern.Cycle()
				b.ReportAllocs()
				var before runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := kern.SetValues(0, values); err != nil {
						b.Fatal(err)
					}
					for c := 0; c < cycles; c++ {
						kern.Cycle()
					}
				}
				b.StopTimer()
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				exchanges := float64(b.N) * float64(cycles) * float64(n)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/exchanges, "ns/exchange")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/exchanges, "allocs/exchange")
			})
		}
	}
}

// BenchmarkScenarioSweep measures a paper-scale declarative sweep
// (N = 10⁵, 10 cycles, 2 repeats) through the scenario engine,
// sequential versus sharded execution — the speedup `cmd/figures
// -shards -1` buys on multi-core machines. The sequential variant uses
// the engine's worker pool across repeats; the sharded variant gives
// the cores to the kernel's tournament executor instead.
func BenchmarkScenarioSweep(b *testing.B) {
	const n, cycles, repeats = 100_000, 10, 2
	for _, tc := range []struct {
		name    string
		shards  int
		workers int
	}{
		{"sequential", 0, 0},
		{"sharded", scenario.AutoShards, 1},
	} {
		b.Run(fmt.Sprintf("executor=%s/n=%d", tc.name, n), func(b *testing.B) {
			spec := scenario.Spec{
				Name:    "bench-sweep",
				Size:    n,
				Cycles:  cycles,
				Shards:  tc.shards,
				Repeats: repeats,
				Seed:    70,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var col scenario.Collector
				if err := (scenario.Runner{Workers: tc.workers}).Run(context.Background(), []scenario.Spec{spec}, &col); err != nil {
					b.Fatal(err)
				}
				if got := len(col.Results()); got != repeats*(cycles+1) {
					b.Fatalf("got %d rows, want %d", got, repeats*(cycles+1))
				}
			}
			exchanges := float64(b.N) * repeats * cycles * n
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/exchanges, "ns/exchange")
		})
	}
}

// BenchmarkSchemaMerge is the node-state hot path: one five-field
// summary merge.
func BenchmarkSchemaMerge(b *testing.B) {
	schema := core.SummarySchema()
	x := schema.InitState(3)
	y := schema.InitState(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		schema.MergeInto(x, y)
	}
}

// BenchmarkMessageCodec measures wire encode+decode of a typical
// five-field protocol message.
func BenchmarkMessageCodec(b *testing.B) {
	msg := transport.Message{
		Kind:   transport.KindPush,
		Epoch:  9,
		Seq:    12345,
		From:   "127.0.0.1:54321",
		Fields: []float64{1, 2, 3, 4, 5},
		Gossip: []string{"127.0.0.1:1111", "127.0.0.1:2222", "127.0.0.1:3333"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := msg.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var out transport.Message
		if err := out.UnmarshalBinary(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKRegularGeneration measures overlay construction at the
// paper's parameters (k = 20), the setup cost of every experiment run.
func BenchmarkKRegularGeneration(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := xrand.New(51)
			for i := 0; i < b.N; i++ {
				if _, err := topology.NewKRegular(n, 20, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
