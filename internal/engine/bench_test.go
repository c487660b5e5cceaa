package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/robust"
	"repro/internal/sim"
)

// BenchmarkRuntimeExchange measures live-runtime exchange throughput
// over the in-memory fabric at N = 10³, 10⁴ and 10⁵ nodes. Δt = 1 ms
// oversubscribes every size, so the measurement is the runtime's
// maximum sustainable exchange rate. One benchmark iteration is a fixed
// one-second measurement window (never b.N exchanges: a runtime that
// collapses under load would otherwise hang the harness — the collapse
// is the result); throughput is reported as the explicit exchanges/s
// and ns/exchange metrics, not ns/op.
//
// CI's bench-smoke step runs n=10000 once per PR.
//
// Recorded trajectory on the 1-core dev container (n=10000,
// benchtime=2x): PR 3 baseline ≈ 570–834 k exchanges/s on CI hardware,
// 739 k exchanges/s (1352 ns/exchange) re-measured before PR 5; after
// the pooled zero-allocation hot path: 865 k exchanges/s
// (1156 ns/exchange), +17% on identical hardware.
func BenchmarkRuntimeExchange(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchmarkRuntimeExchange(b, n)
		})
	}
}

func benchmarkRuntimeExchange(b *testing.B, size int) {
	c, err := NewCluster(ClusterConfig{
		Size:         size,
		Schema:       core.AverageSchema(),
		Value:        func(i int) float64 { return float64(i % 2) },
		CycleLength:  time.Millisecond, // saturating at every size
		ReplyTimeout: 250 * time.Millisecond,
		Seed:         uint64(size),
	})
	if err != nil {
		b.Fatal(err)
	}
	c.Start(context.Background())
	// Warm up past construction transients before measuring.
	time.Sleep(100 * time.Millisecond)
	before := c.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		time.Sleep(time.Second)
	}
	b.StopTimer()
	after := c.Stats()
	c.Stop()

	exchanges := after.Initiated - before.Initiated
	elapsed := b.Elapsed().Seconds()
	if exchanges == 0 || elapsed == 0 {
		b.Fatalf("no exchanges during the measurement window (stats %+v)", after)
	}
	b.ReportMetric(float64(exchanges)/elapsed, "exchanges/s")
	b.ReportMetric(elapsed*1e9/float64(exchanges), "ns/exchange")
	b.ReportMetric(float64(after.Replies-before.Replies)/float64(exchanges), "replies/initiated")
}

// BenchmarkRuntimeSustained is the sustained-throughput harness in
// -bench mode: a full 20-cycle saturated run of the heap runtime on the
// in-memory fabric, asserting the same acceptance bounds as the 10⁵
// test (variance down 100×, completion against a size-matched floor —
// 98.9% at n ≥ 10⁵ — and ≈ 0 allocs/exchange) and reporting sustained
// throughput, completion and steady-state allocation rate as benchmark
// metrics. n=1000000 is the 10⁶-node scale gate; n=10000 is the CI
// bench-smoke variant with the alloc assertion enabled on every PR.
func BenchmarkRuntimeSustained(b *testing.B) {
	for _, tc := range []struct {
		n             int
		minCompletion float64
	}{
		// ≈ 1 − eventBudget(n)/n busy-nack geometry, see assertSustained.
		{10_000, 0.85},
		{100_000, 0.989},
		{1_000_000, 0.989},
	} {
		b.Run(fmt.Sprintf("n=%d", tc.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runSustained(b, tc.n, 20, 0, 15*time.Minute)
				assertSustained(b, res, tc.minCompletion)
				b.ReportMetric(res.PerSecond, "exchanges/s")
				b.ReportMetric(res.Completion, "completion")
				b.ReportMetric(res.AllocsPerExchange, "allocs/exchange")
			}
		})
	}
}

// BenchmarkRuntimeSustainedRobust is the robust-merge cost gate: the
// sustained harness with the full countermeasure stack installed —
// value clamp plus trimmed merge — while 5% of the population acts as
// extreme-value adversaries pinned at 1000, feeding the trim gate real
// rejections. The assertion is the same as the baseline harness: the
// honest population (reduces skip adversaries) still converges on 0.5
// at ≈ 0 allocs/exchange, because the countermeasures are pure
// arithmetic on the pooled hot path (the trim state lives in the node's
// cold record). The completion floor is looser than the honest
// harness's: every adversary-initiated push is trim-nacked by its
// honest responder, which is the countermeasure working, not collapse.
func BenchmarkRuntimeSustainedRobust(b *testing.B) {
	const n = 10_000
	for i := 0; i < b.N; i++ {
		res := runSustainedWith(b, n, 20, 0, 15*time.Minute, func(c *Cluster) {
			count := n / 20 // 5%
			idx := make([]int, count)
			for j := range idx {
				idx[j] = j * n / count
			}
			if err := c.SetAdversaries(sim.AdvExtreme, idx, 1000, 0); err != nil {
				b.Fatal(err)
			}
			c.SetRobust(robust.Policy{
				Clamp: true, ClampMin: -100, ClampMax: 100,
				Trim: true, TrimK: 8,
			})
		})
		// ≈ 0.85 busy-nack geometry minus the ~5% adversary-initiated
		// pushes the gate refuses (measured 0.81; floor leaves noise room).
		assertSustained(b, res, 0.75)
		if res.RobustRejected == 0 {
			b.Fatal("trim gate rejected nothing during a sustained attack; the countermeasure is not engaged")
		}
		b.ReportMetric(res.PerSecond, "exchanges/s")
		b.ReportMetric(res.Completion, "completion")
		b.ReportMetric(res.AllocsPerExchange, "allocs/exchange")
	}
}

// BenchmarkRuntimeSustainedTCP is the sustained harness on the
// socket-backed single-shard shape with gossip membership — what a
// repro.Open(WithTCP, WithSize(n)) process runs between its own nodes —
// saturated. It gates the in-round local delivery path: zero socket
// bytes, ≈ 0 allocs/exchange and (no busy-nacks between local
// partners) ≥ 99.9 % completion, and reports the sustained rate.
func BenchmarkRuntimeSustainedTCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, socketBytes := runSustainedTCP(b, 10_000, 25, 15*time.Minute)
		assertSustainedTCP(b, res, socketBytes)
		b.ReportMetric(res.PerSecond, "exchanges/s")
		b.ReportMetric(res.Completion, "completion")
		b.ReportMetric(res.AllocsPerExchange, "allocs/exchange")
	}
}

// sustainedFloor is the completion floor matched to a run's busy-nack
// geometry: a saturated shard keeps up to eventBudget(n/workers) nodes
// in flight at once, a push landing on an in-flight peer is nacked, so
// the nack rate tracks the total in-flight fraction. The 2.5× margin
// absorbs run-to-run noise; the 0.7 floor still catches collapse.
func sustainedFloor(n, workers int) float64 {
	per := (n + workers - 1) / workers
	inflight := float64(eventBudget(per)*workers) / float64(n)
	return max(0.7, 1-2.5*inflight)
}

// BenchmarkRuntimeSustainedScaling is the multi-core gate: the
// sustained harness at a fixed size across worker counts 1, 2, 4 (and
// GOMAXPROCS when larger), asserting near-linear scaling of sustained
// exchanges/s whenever the hardware actually has the cores — ≥ 2.5× at
// 4 workers, ≥ 1.4× at 2 — at ≈ 0 allocs/exchange. With fewer cores
// the multi-worker runs still execute (parallel-shard correctness
// under oversubscription) but the speedup assertion is skipped: no
// hardware, no demonstrable speedup. CI's multicore bench-smoke step
// runs this benchmark with GOMAXPROCS ≥ 2 and records the results in
// the BENCH_PR6 perf trajectory.
func BenchmarkRuntimeSustainedScaling(b *testing.B) {
	const n = 100_000
	maxProcs := runtime.GOMAXPROCS(0)
	counts := []int{1}
	for _, w := range []int{2, 4} {
		if w <= maxProcs {
			counts = append(counts, w)
		}
	}
	if maxProcs > 4 {
		counts = append(counts, maxProcs)
	}
	rate := make(map[int]float64, len(counts))
	for _, w := range counts {
		b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runSustained(b, n, 20, w, 15*time.Minute)
				assertSustained(b, res, sustainedFloor(n, w))
				rate[w] = res.PerSecond
				b.ReportMetric(res.PerSecond, "exchanges/s")
				b.ReportMetric(res.PerSecond/float64(w), "exchanges/s/worker")
				b.ReportMetric(res.Completion, "completion")
				b.ReportMetric(res.AllocsPerExchange, "allocs/exchange")
			}
		})
	}
	base := rate[1]
	if base == 0 {
		return // single-worker run filtered out or failed; nothing to compare
	}
	for w, minSpeedup := range map[int]float64{2: 1.4, 4: 2.5} {
		r, ran := rate[w]
		if !ran || maxProcs < w {
			continue
		}
		if speedup := r / base; speedup < minSpeedup {
			b.Errorf("workers=%d sustained %.0f exchanges/s vs %.0f at workers=1 — %.2f×, want ≥ %.1f× on %d CPUs",
				w, r, base, speedup, minSpeedup, maxProcs)
		}
	}
}

// BenchmarkRuntimeMetricsOverhead is the telemetry-cost gate: the
// sustained harness with a registered metrics registry, trace sampling
// and a live 20 Hz scraper, compared against the bare harness (same
// ≈ 0 allocs/exchange steady state asserted on both). The engine's
// series are scrape-time readers over counters the runtime maintains
// anyway, so the design budget is 2%: six round-granular mirror stores
// plus a masked sampling gate per exchange.
//
// The comparison is built for noisy shared hardware — the dev
// container's whole-machine throughput swings ±10% run to run in
// multi-second bursts. The variants run as tightly-paired A/B runs
// with the order alternated pair to pair, and the ratio is estimated
// two ways: the median of per-pair ratios (robust to outlier pairs)
// and best-of/best-of (robust to slow phases, since each side need
// only land one clean window). A noise burst rarely corrupts both
// estimators at once, but a real hot-path regression slows every
// telemetry run and drags both down, so the gate takes the larger of
// the two, at ≥ 0.95 — the 2% design budget plus the container's
// noise floor — and retries one fresh round before failing. The
// variable-modulo trace gate this benchmark flushed out cost 9% and
// fails both estimators in both rounds; single-burst flukes don't.
// The measured ratio lands in the BENCH_PR7 perf trajectory.
func BenchmarkRuntimeMetricsOverhead(b *testing.B) {
	const n = 10_000
	const pairs = 7
	const floor = 0.95
	run := func(reg *metrics.Registry) float64 {
		var stop chan struct{}
		if reg != nil {
			stop = make(chan struct{})
			go func() { // a Prometheus scraper, aggressive at 20 Hz
				ticker := time.NewTicker(50 * time.Millisecond)
				defer ticker.Stop()
				var buf []byte
				for {
					select {
					case <-stop:
						return
					case <-ticker.C:
						buf = reg.AppendPrometheus(buf[:0])
					}
				}
			}()
		}
		res := runSustained(b, n, 20, 0, 15*time.Minute, func(cfg *ClusterConfig) {
			if reg != nil {
				cfg.Metrics = reg
				cfg.TraceSample = 64
			}
		})
		if stop != nil {
			close(stop)
		}
		assertSustained(b, res, 0.85)
		return res.PerSecond
	}
	round := func() (ratio, meanOff, meanOn float64, ratios []float64) {
		var bestOff, bestOn, sumOff, sumOn float64
		for r := 0; r < pairs; r++ {
			var off, on float64
			if r%2 == 0 {
				off = run(nil)
				on = run(metrics.New())
			} else {
				on = run(metrics.New())
				off = run(nil)
			}
			sumOff += off
			sumOn += on
			bestOff = max(bestOff, off)
			bestOn = max(bestOn, on)
			ratios = append(ratios, on/off)
		}
		sort.Float64s(ratios)
		return max(ratios[len(ratios)/2], bestOn/bestOff), sumOff / pairs, sumOn / pairs, ratios
	}
	for i := 0; i < b.N; i++ {
		ratio, meanOff, meanOn, ratios := round()
		if ratio < floor {
			b.Logf("round 1 below the gate (%.3f, pairs %v); retrying against a fresh round", ratio, ratios)
			ratio, meanOff, meanOn, ratios = round()
		}
		b.ReportMetric(meanOff, "base_exchanges/s")
		b.ReportMetric(meanOn, "telemetry_exchanges/s")
		b.ReportMetric(ratio, "telemetry_ratio")
		if ratio < floor {
			b.Errorf("telemetry costs %.1f%% of sustained throughput (max of pair-median and best-of estimators over %d pairs, %v), want ≈ 0%% within the %.0f%% gate",
				100*(1-ratio), pairs, ratios, 100*(1-floor))
		}
	}
}

// reduceSink keeps BenchmarkRuntimeReduceField's fold observable.
var reduceSink float64

// BenchmarkRuntimeReduceField times one ReduceField over 10⁵ hosted
// nodes on 2 workers: the observation scan that holds each shard's round
// lock for a full pass over its nodes, stalling that shard's worker. The
// runtime is built but not started, so the number is the scan alone;
// ns/node divides it by the node count.
func BenchmarkRuntimeReduceField(b *testing.B) {
	const n = 100_000
	rt, err := NewRuntime(RuntimeConfig{
		Size:        n,
		Schema:      core.AverageSchema(),
		Value:       func(i int) float64 { return float64(i % 2) },
		CycleLength: 200 * time.Millisecond,
		Workers:     2,
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Stop()
	var sum float64
	fold := func(v float64) { sum += v }
	for b.Loop() {
		sum = 0
		if err := rt.ReduceField("avg", fold); err != nil {
			b.Fatal(err)
		}
	}
	reduceSink = sum
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/node")
}
