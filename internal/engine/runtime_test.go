package engine

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/membership"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/xrand"
)

func TestRuntimeConfigValidation(t *testing.T) {
	base := RuntimeConfig{
		Size:        8,
		Schema:      core.AverageSchema(),
		CycleLength: time.Millisecond,
	}
	mutations := []struct {
		name   string
		mutate func(c RuntimeConfig) RuntimeConfig
	}{
		{"too small", func(c RuntimeConfig) RuntimeConfig { c.Size = 1; return c }},
		{"nil schema", func(c RuntimeConfig) RuntimeConfig { c.Schema = nil; return c }},
		{"zero cycle", func(c RuntimeConfig) RuntimeConfig { c.CycleLength = 0; return c }},
		{"bad wait", func(c RuntimeConfig) RuntimeConfig { c.Wait = WaitPolicy(99); return c }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			if _, err := NewRuntime(m.mutate(base)); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
	if _, err := NewRuntime(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// Explicit endpoints fix the worker count: up to one per node is
	// accepted, more is an error.
	fabric := transport.NewFabric()
	three := base
	three.Size = 4
	three.Endpoints = []transport.Endpoint{fabric.NewEndpoint(), fabric.NewEndpoint(), fabric.NewEndpoint()}
	if rt, err := NewRuntime(three); err != nil {
		t.Fatalf("3 endpoints for 4 nodes rejected: %v", err)
	} else if rt.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", rt.Workers())
	}
	over := base
	over.Size = 2
	over.Endpoints = []transport.Endpoint{fabric.NewEndpoint(), fabric.NewEndpoint(), fabric.NewEndpoint()}
	if _, err := NewRuntime(over); err == nil {
		t.Fatal("3 endpoints for 2 nodes accepted")
	}
}

func TestRuntimeModeString(t *testing.T) {
	if ModeGoroutine.String() != "goroutine" || ModeHeap.String() != "heap" {
		t.Error("mode names wrong")
	}
	if RuntimeMode(42).String() == "" {
		t.Error("unknown mode produced empty string")
	}
}

func TestRuntimeStopBeforeStart(t *testing.T) {
	rt, err := NewRuntime(RuntimeConfig{
		Size:        4,
		Schema:      core.AverageSchema(),
		CycleLength: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Stop() // must not hang or panic
	rt.Stop() // idempotent
}

func TestRuntimeShardOfCoversAllNodes(t *testing.T) {
	for _, tc := range []struct{ size, workers int }{
		{8, 1}, {8, 3}, {10, 4}, {100, 7}, {64, 8},
	} {
		rt, err := NewRuntime(RuntimeConfig{
			Size:        tc.size,
			Schema:      core.AverageSchema(),
			CycleLength: time.Millisecond,
			Workers:     tc.workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for _, s := range rt.shards {
			for i := s.lo; i < s.hi; i++ {
				if got := rt.shardOf(i); got != s {
					t.Fatalf("size=%d workers=%d: shardOf(%d) = shard %d, want %d",
						tc.size, tc.workers, i, got.id, s.id)
				}
				covered++
			}
		}
		if covered != tc.size {
			t.Fatalf("size=%d workers=%d: shards cover %d nodes", tc.size, tc.workers, covered)
		}
		rt.Stop()
	}
}

func TestHeapClusterConvergesToAverage(t *testing.T) {
	const size = 24
	c, err := NewCluster(ClusterConfig{
		Size:         size,
		Schema:       core.AverageSchema(),
		Value:        func(i int) float64 { return float64(i) },
		CycleLength:  2 * time.Millisecond,
		ReplyTimeout: 200 * time.Millisecond,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()
	v, converged, err := c.WaitConverged("avg", 1e-6, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Fatalf("variance %g after 5s, want ≤ 1e-6", v)
	}
	vals, err := c.Snapshot("avg")
	if err != nil {
		t.Fatal(err)
	}
	want := float64(size-1) / 2
	if got := stats.Mean(vals); math.Abs(got-want) > 0.05 {
		t.Fatalf("converged mean %g, want ≈ %g", got, want)
	}
	// The facade nodes must report through the runtime.
	n := c.Nodes()[7]
	if est, err := n.Estimate("avg"); err != nil || math.Abs(est-want) > 0.05 {
		t.Fatalf("facade Estimate = %g, %v", est, err)
	}
	if n.Addr() == "" {
		t.Fatal("facade Addr empty")
	}
	if s := n.Stats(); s.Initiated == 0 {
		t.Fatal("facade Stats shows no initiations")
	}
}

func TestHeapClusterSummarySchemaConverges(t *testing.T) {
	schema := core.SummarySchema()
	sizeIdx, err := schema.Index("size")
	if err != nil {
		t.Fatal(err)
	}
	const size = 16
	c, err := NewCluster(ClusterConfig{
		Size:         size,
		Schema:       schema,
		Value:        func(i int) float64 { return float64(i%4) + 1 },
		CycleLength:  2 * time.Millisecond,
		ReplyTimeout: 200 * time.Millisecond,
		Workers:      3, // exercise cross-shard exchanges
		Seed:         2,
		InitState: func(i int) func(uint64, float64) core.State {
			return func(_ uint64, value float64) core.State {
				st := schema.InitState(value)
				if i == 0 {
					st[sizeIdx] = 1 // node 0 leads the size instance
				}
				return st
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()
	if _, ok, _ := c.WaitConverged("size", 1e-10, 5*time.Second); !ok {
		t.Fatal("size field did not converge")
	}
	sum, err := core.DecodeSummary(schema, c.Nodes()[7].State())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Size-size) > 0.5 {
		t.Errorf("size estimate %g, want ≈ %d", sum.Size, size)
	}
	if sum.Min != 1 || sum.Max != 4 {
		t.Errorf("min/max = %g/%g, want 1/4", sum.Min, sum.Max)
	}
	if math.Abs(sum.Mean-2.5) > 0.05 {
		t.Errorf("mean = %g, want ≈ 2.5", sum.Mean)
	}
}

func TestHeapClusterUnderMessageLoss(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Size:         12,
		Schema:       core.AverageSchema(),
		Value:        func(i int) float64 { return float64(i) },
		CycleLength:  2 * time.Millisecond,
		ReplyTimeout: 20 * time.Millisecond,
		Seed:         6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoss(0.2); err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()
	if v, ok, _ := c.WaitConverged("avg", 1e-4, 8*time.Second); !ok {
		t.Fatalf("lossy heap cluster stuck at variance %g", v)
	}
	if c.Stats().Timeouts == 0 {
		t.Error("20% loss produced zero timeouts; loss path unexercised")
	}
}

func TestHeapEpochRestartAdaptsToNewValues(t *testing.T) {
	clock, err := epoch.NewClock(time.Now(), 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		Size:         8,
		Schema:       core.AverageSchema(),
		Value:        func(i int) float64 { return 1 },
		CycleLength:  2 * time.Millisecond,
		ReplyTimeout: 200 * time.Millisecond,
		Clock:        clock,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()
	for _, n := range c.Nodes() {
		n.SetValue(5)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		est, err := c.Nodes()[3].Estimate("avg")
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est-5) < 0.01 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("estimate %g never adapted to new value 5", est)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if c.Stats().EpochSwitches == 0 {
		t.Fatal("no epoch switches recorded despite adaptation")
	}
	// Epoch identifiers spread epidemically; give node 0 a moment in
	// case the boundary was crossed just before the adaptation check.
	for c.Nodes()[0].Epoch() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("facade Epoch never advanced")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHeapClusterPushOnlyStillReducesVariance(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Size:        12,
		Schema:      core.AverageSchema(),
		Value:       func(i int) float64 { return float64(i) },
		CycleLength: 2 * time.Millisecond,
		PushOnly:    true,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	before, err := c.Variance("avg")
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		after, _ := c.Variance("avg")
		if after < before/10 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("push-only variance stuck: %g → %g", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHeapRuntimesBootstrapAcrossProcesses covers the deployable
// multi-process shape: two runtimes ("processes") that know each other
// only by bare endpoint address (aggnode -peers host:port) must
// bootstrap — first-contact pushes to the base address are served by
// the shard's first node, whose reply From teaches the remote gossip
// sampler real sub-addresses — and converge on the combined average.
func TestHeapRuntimesBootstrapAcrossProcesses(t *testing.T) {
	fabric := transport.NewFabric(transport.WithSeed(99))
	const perRuntime = 8
	build := func(value float64, seed uint64) *Runtime {
		ep := fabric.NewEndpoint()
		peerBase := "mem-0"
		if ep.Addr() == "mem-0" {
			peerBase = "mem-1" // the other runtime's endpoint
		}
		rt, err := NewRuntime(RuntimeConfig{
			Size:         perRuntime,
			Schema:       core.AverageSchema(),
			Value:        func(int) float64 { return value },
			CycleLength:  2 * time.Millisecond,
			ReplyTimeout: 100 * time.Millisecond,
			Endpoints:    []transport.Endpoint{ep},
			Seed:         seed,
			Samplers: func(i int, self string, local []string) (membership.Sampler, error) {
				boot := []string{peerBase}
				if sib := local[(i+1)%len(local)]; sib != self {
					boot = append(boot, sib)
				}
				return membership.NewGossipSampler(self, 8, boot)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	a := build(10, 1)
	b := build(20, 2)
	a.Start(context.Background())
	b.Start(context.Background())
	defer a.Stop()
	defer b.Stop()

	// Both populations must reach the cross-process average 15.
	deadline := time.Now().Add(10 * time.Second)
	for {
		va, _ := a.Snapshot("avg")
		vb, _ := b.Snapshot("avg")
		if math.Abs(stats.Mean(va)-15) < 0.5 && math.Abs(stats.Mean(vb)-15) < 0.5 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("runtimes never mixed: a=%g b=%g, want ≈ 15 each",
				stats.Mean(va), stats.Mean(vb))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// hubSampler drives a deliberately skewed workload: with probability
// 0.9 every push is aimed at one of the first hub sub-addresses (all
// owned by shard 0), otherwise at a uniform peer — the scalefree-hub
// load shape that makes one shard run permanently behind while its
// siblings idle.
type hubSampler struct {
	self string
	all  []string
	hubs int
}

var _ membership.Sampler = (*hubSampler)(nil)

func (h *hubSampler) Sample(rng *xrand.Rand) (string, bool) {
	pool := h.all
	if rng.Float64() < 0.9 {
		pool = h.all[:h.hubs]
	}
	for try := 0; try < 4; try++ {
		if a := pool[rng.Intn(len(pool))]; a != h.self {
			return a, true
		}
	}
	return "", false
}

func (h *hubSampler) Observe(string, []string, []uint32) {}
func (h *hubSampler) AppendDigest(addrs []string, ages []uint32, _ *xrand.Rand, _ int) ([]string, []uint32) {
	return addrs, ages
}
func (h *hubSampler) Tick()         {}
func (h *hubSampler) Forget(string) {}

// TestRuntimeSkewedLoadRace hammers the cross-shard path under hub
// skew: four parallel shard workers, 90% of all pushes aimed at shard
// 0's four hub nodes, saturating Δt, while two observer goroutines spin
// on the lock-free Stats fold and the shard-locked ReduceField. The
// assertions are progress and mass conservation; under the race CI
// job's -race run this doubles as the data-race gate for cross-shard
// fusing, mailbox handoff at shard boundaries and the atomic stats
// counters.
func TestRuntimeSkewedLoadRace(t *testing.T) {
	const size, workers = 64, 4
	rt, err := NewRuntime(RuntimeConfig{
		Size:         size,
		Schema:       core.AverageSchema(),
		Value:        func(i int) float64 { return float64(i % 2) },
		CycleLength:  500 * time.Microsecond,
		ReplyTimeout: 100 * time.Millisecond,
		Workers:      workers,
		Seed:         99,
		Samplers: func(i int, self string, local []string) (membership.Sampler, error) {
			return &hubSampler{self: self, all: local, hubs: 4}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background())

	stopObs := make(chan struct{})
	var obs sync.WaitGroup
	for o := 0; o < 2; o++ {
		obs.Add(1)
		go func() {
			defer obs.Done()
			for {
				select {
				case <-stopObs:
					return
				default:
				}
				_ = rt.Stats()
				var run stats.Running
				_ = rt.ReduceField("avg", run.Add)
			}
		}()
	}
	time.Sleep(400 * time.Millisecond)
	close(stopObs)
	obs.Wait()
	rt.Stop()

	agg := rt.Stats()
	if agg.Initiated == 0 || agg.Served == 0 {
		t.Fatalf("no progress under skewed load: %+v", agg)
	}
	var run stats.Running
	if err := rt.ReduceField("avg", run.Add); err != nil {
		t.Fatal(err)
	}
	if mean := run.Mean(); math.Abs(mean-0.5) > 0.15 {
		t.Fatalf("mean drifted to %g under skewed load, want ≈ 0.5", mean)
	}
	t.Logf("skewed run: %d initiated, %d served, %d busy-nacked",
		agg.Initiated, agg.Served, agg.BusyDropped)
}

// sustainedResult summarizes one sustained-throughput harness run.
type sustainedResult struct {
	Stats             Stats
	Exchanges         uint64  // initiations inside the measured window
	PerSecond         float64 // sustained initiations per wall second
	Completion        float64 // replies/initiated over the whole run
	AllocsPerExchange float64 // heap mallocs per initiation, steady state
	Variance          float64 // final cross-node variance of "avg"
	Mean              float64 // final cross-node mean of "avg"
	RobustRejected    uint64  // exchange halves refused by the trim gate
}

// runSustained is the parameterized sustained-throughput harness behind
// TestHeapRuntimeSustains100k and BenchmarkRuntimeSustained: one process
// hosts size live heap-mode nodes on the in-memory fabric with a
// saturating Δt = 1 ms and runs until every node has initiated `cycles`
// exchanges on average. workers pins the shard/worker count (0 keeps
// the GOMAXPROCS default). The first two cycles' worth of exchanges are
// a warm-up (pools filling, batch queues growing to steady state); the
// rest is the measured window, over which steady-state heap mallocs per
// exchange are accounted with runtime.ReadMemStats. opts mutate the
// cluster config before construction (e.g. attaching a metrics
// registry for the overhead gate).
func runSustained(tb testing.TB, size, cycles, workers int, deadline time.Duration, opts ...func(*ClusterConfig)) sustainedResult {
	tb.Helper()
	return runSustainedWith(tb, size, cycles, workers, deadline, nil, opts...)
}

// runSustainedWith is runSustained plus a post-Start hook — the robust
// variant uses it to install adversaries and countermeasures on the
// live cluster before the measured window.
func runSustainedWith(tb testing.TB, size, cycles, workers int, deadline time.Duration, postStart func(*Cluster), opts ...func(*ClusterConfig)) sustainedResult {
	tb.Helper()
	cfg := ClusterConfig{
		Size:   size,
		Schema: core.AverageSchema(),
		// Values ±0/1: true average 0.5, initial variance 0.25.
		Value:        func(i int) float64 { return float64(i % 2) },
		CycleLength:  time.Millisecond, // saturating: workers run flat out
		ReplyTimeout: 300 * time.Millisecond,
		Workers:      workers,
		Seed:         42,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()
	if postStart != nil {
		postStart(c)
	}
	return measureSustained(tb, c.Runtime, 2, cycles, deadline)
}

// measureSustained is the accounting shared by the sustained harnesses:
// on a started runtime, wait out warmCycles cycles' worth of initiated
// exchanges, then measure until every node has initiated `cycles`
// exchanges on average — steady-state heap mallocs per exchange by
// runtime.ReadMemStats, throughput, completion, and the final mean and
// variance over the honest population.
func measureSustained(tb testing.TB, rt *Runtime, warmCycles, cycles int, deadline time.Duration) sustainedResult {
	tb.Helper()
	size := rt.Size()
	giveUp := time.Now().Add(deadline)
	// Stats() folds O(workers) atomic counters lock-free, so a tight
	// constant poll never stalls the workers it measures, regardless of
	// size.
	poll := 2 * time.Millisecond
	waitInitiated := func(target uint64) Stats {
		for {
			agg := rt.Stats()
			if agg.Initiated >= target {
				return agg
			}
			if time.Now().After(giveUp) {
				tb.Fatalf("only %d exchanges initiated (want ≥ %d) before deadline", agg.Initiated, target)
			}
			time.Sleep(poll)
		}
	}

	warm := waitInitiated(uint64(warmCycles * size))
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	agg := waitInitiated(uint64(cycles * size))
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	window := time.Since(t0)

	if agg.Initiated == warm.Initiated {
		tb.Fatalf("degenerate measurement window: the run outpaced the %v poll; raise cycles (%d) for size %d", poll, cycles, size)
	}
	res := sustainedResult{
		Stats:      agg,
		Exchanges:  agg.Initiated - warm.Initiated,
		Completion: float64(agg.Replies) / float64(agg.Initiated),
	}
	res.PerSecond = float64(res.Exchanges) / window.Seconds()
	res.AllocsPerExchange = float64(m1.Mallocs-m0.Mallocs) / float64(res.Exchanges)

	var run stats.Running
	if err := rt.ReduceField("avg", run.Add); err != nil {
		tb.Fatal(err)
	}
	res.Variance = run.Variance()
	res.Mean = run.Mean()
	res.RobustRejected = rt.RobustRejected()
	return res
}

// assertSustained applies the harness's acceptance bounds: the variance
// must have fallen two orders of magnitude from the initial 0.25, the
// mean must hold at 0.5 (mass conservation), the run must complete at
// least minCompletion of initiated exchanges and the measured
// steady-state exchange path must be allocation-free — the ≤ 0.05
// bound leaves room only for the rare cross-shard pool spill and
// scheduler noise, two orders of magnitude below the pre-pool cost of
// several allocations per exchange.
//
// minCompletion is geometry-dependent: see oneShardFloor.
func assertSustained(tb testing.TB, res sustainedResult, minCompletion float64) {
	tb.Helper()
	if res.Variance > 0.25/100 {
		tb.Fatalf("variance %g after the sustained run, want ≤ %g", res.Variance, 0.25/100)
	}
	if math.Abs(res.Mean-0.5) > 0.05 {
		tb.Fatalf("mean drifted to %g, want ≈ 0.5", res.Mean)
	}
	if res.Completion < minCompletion {
		tb.Fatalf("completion %.4f, want ≥ %.4f (stats %+v)", res.Completion, minCompletion, res.Stats)
	}
	if res.AllocsPerExchange > 0.05 {
		tb.Fatalf("steady-state exchange path allocates %.4f objects/exchange, want ≈ 0 (≤ 0.05)", res.AllocsPerExchange)
	}
}

// oneShardFloor is a coarse completion floor for a saturated one-shard
// run of n nodes: 1 − 1.25·eventBudget(n)/n, 0.987 at n = 10⁵ and 0.844
// at n = 4 096 — what a round whose initiations were all in flight
// together, busy-nacking one another, would still complete. On one
// shard nothing is in flight when a push lands: every partner is
// same-shard, so an exchange starts and completes inside one hold of the
// round lock, and completion is 1 up to the exchanges a poll catches
// between their counter bumps. assertOneShard checks that directly (no
// nack, no timeout). With k shards, cross-shard exchanges are in flight
// and busy-nacks return, which is why the tests that assert either pin
// one worker rather than take the host's GOMAXPROCS.
func oneShardFloor(n int) float64 {
	return 1 - 1.25*float64(eventBudget(n))/float64(n)
}

// assertOneShard applies the sustained bounds of a saturated one-worker
// run on a lossless fabric: those of assertSustained at oneShardFloor,
// and no busy-nack and no reply timeout, since no exchange is ever
// pending when a push lands.
func assertOneShard(tb testing.TB, res sustainedResult, n int) {
	tb.Helper()
	assertSustained(tb, res, oneShardFloor(n))
	if res.Stats.PeerBusy != 0 || res.Stats.Timeouts != 0 {
		tb.Fatalf("one-shard lossless run saw %d busy-nacks and %d timeouts, want none (stats %+v)",
			res.Stats.PeerBusy, res.Stats.Timeouts, res.Stats)
	}
}

// TestHeapRuntimeSustains100k is the scale acceptance test: one process
// hosts N = 10⁵ live nodes on the in-memory fabric and completes a full
// 20-cycle average run (every node initiates ≥ 20 exchanges) while
// driving the variance down two orders of magnitude, with no busy-nack,
// no timeout and an allocation-free steady state (assertOneShard), on
// one worker. The 10⁶-node variant of the same harness runs in -bench
// mode (BenchmarkRuntimeSustained).
func TestHeapRuntimeSustains100k(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-node scale run; skipped in -short mode")
	}
	res := runSustained(t, 100_000, 20, 1, 3*time.Minute)
	assertOneShard(t, res, 100_000)
	t.Logf("100k-node run: %.0f exchanges/s, completion %.4f, %.4f allocs/exchange, stats %+v",
		res.PerSecond, res.Completion, res.AllocsPerExchange, res.Stats)
}

// TestHeapRuntimeSteadyStateAllocs pins the zero-allocation claim on
// every regular (non-short) test run at a size small enough for the
// slowest CI runner: after warm-up, the heap runtime's one-shard
// exchange path — wake, partner draw, fused merge, rescheduling — must
// allocate nothing, and no exchange may be nacked or time out
// (assertOneShard). The two-worker variant below covers the letter path
// across the mailboxes.
func TestHeapRuntimeSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second saturated run; skipped in -short mode")
	}
	// 100 cycles ≈ half a second of saturated running — enough wall time
	// for a meaningful steady-state window at this size.
	res := runSustained(t, 4096, 100, 1, time.Minute)
	assertOneShard(t, res, 4096)
	t.Logf("4096-node run: %.0f exchanges/s, completion %.4f, %.4f allocs/exchange",
		res.PerSecond, res.Completion, res.AllocsPerExchange)
}

// TestHeapRuntimeSteadyStateAllocsTwoWorkers is the same run on two
// parallel shards, half of whose traffic crosses between them through
// the mailboxes. Completion there depends on how the host schedules
// two workers, so only what holds on any host is asserted: the mean is
// conserved, the variance falls 100×, the path stays allocation-free
// and in-process, and, once the workers have stopped, every initiated
// exchange is accounted for exactly — replied, nacked, timed out or
// still in flight.
func TestHeapRuntimeSteadyStateAllocsTwoWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second saturated run; skipped in -short mode")
	}
	var c *Cluster
	res := runSustainedWith(t, 4096, 100, 2, time.Minute, func(cl *Cluster) { c = cl })
	assertSustained(t, res, 0)
	// The harness has stopped the cluster: the counters are final and an
	// exchange still in flight is frozen in its node's pendingSeq.
	rt := c.Runtime
	st := rt.Stats()
	var inFlight uint64
	for _, s := range rt.shards {
		s.mu.Lock()
		for i := range s.nodes {
			if s.nodes[i].pendingSeq != 0 {
				inFlight++
			}
		}
		s.mu.Unlock()
	}
	if got := st.Replies + st.PeerBusy + st.Timeouts + inFlight; got != st.Initiated {
		t.Fatalf("%d initiated, but %d replied + %d nacked + %d timed out + %d in flight = %d (stats %+v)",
			st.Initiated, st.Replies, st.PeerBusy, st.Timeouts, inFlight, got, st)
	}
	// The allocation bound above covers the mailbox path: in memory
	// every sibling-shard message the fuse declined went through it, and
	// there is no batcher to send a frame.
	for _, s := range rt.shards {
		if s.out != nil {
			t.Fatalf("shard %d of an in-memory runtime has a batcher", s.id)
		}
	}
	if localDelivered(rt) == 0 {
		t.Fatal("no in-process delivery in memory")
	}
	t.Logf("4096-node run on 2 workers: %.0f exchanges/s, completion %.4f, %.4f allocs/exchange, %d in flight at stop",
		res.PerSecond, res.Completion, res.AllocsPerExchange, inFlight)
}

// runSustainedTCP is the sustained harness for the socket-backed shape
// repro.Open(WithTCP) deploys: one shard of size nodes behind a real
// loopback listener, gossip membership on (views, digests, Observe and
// Tick all hot), saturating Δt = 1 ms. Every exchange is between two
// nodes of the one shard, so the whole run must travel the in-round
// local path. The warm-up is five cycles, not runSustained's two: besides the pools, every node's view has to overflow
// once (its backing array grows past capacity) and its per-round sender
// budget table has to reach its working size. The extra return is the
// bytes the socket wrote over the whole run.
func runSustainedTCP(tb testing.TB, size, cycles int, deadline time.Duration) (sustainedResult, uint64) {
	tb.Helper()
	rt, ep := newTCPRuntime(tb, size, nil, func(c *RuntimeConfig) {
		c.CycleLength = time.Millisecond
		c.ReplyTimeout = 300 * time.Millisecond
		c.Seed = 42
	})
	rt.Start(context.Background())
	return measureSustained(tb, rt, 5, cycles, deadline), ep.BytesSent()
}

// assertSustainedTCP applies the local path's acceptance bounds: no
// socket bytes, ≈ 0 allocations per exchange (shard-scratch digests,
// pooled Fields, no codec), mass conserved, and — because a local
// exchange never leaves its initiator pending across a lock release —
// essentially every exchange completed even at saturation, where the
// fabric-backed harness loses eventBudget(n)/n of them to busy-nacks.
// Variance is not gated: gossip views mix far slower than the complete
// overlay the fabric harness runs on.
func assertSustainedTCP(tb testing.TB, res sustainedResult, socketBytes uint64) {
	tb.Helper()
	if socketBytes != 0 {
		tb.Fatalf("socket wrote %d B during a purely local run, want 0", socketBytes)
	}
	if res.AllocsPerExchange > 0.05 {
		tb.Fatalf("local exchange path allocates %.4f objects/exchange, want ≈ 0 (≤ 0.05)", res.AllocsPerExchange)
	}
	if math.Abs(res.Mean-0.5) > 1e-9 {
		tb.Fatalf("mean drifted to %.12g, want 0.5", res.Mean)
	}
	if res.Completion < 0.999 {
		tb.Fatalf("completion %.4f, want ≥ 0.999 (stats %+v)", res.Completion, res.Stats)
	}
}

// TestTCPRuntimeLocalSteadyStateAllocs is TestHeapRuntimeSteadyStateAllocs
// for the socket-backed shape: after warm-up an exchange between two
// nodes of one TCP shard, gossip membership included, runs out of
// recycled buffers and shard scratch and never reaches the socket.
func TestTCPRuntimeLocalSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second saturated run; skipped in -short mode")
	}
	res, socketBytes := runSustainedTCP(t, 4096, 100, time.Minute)
	assertSustainedTCP(t, res, socketBytes)
	t.Logf("4096-node TCP shard: %.0f exchanges/s, completion %.4f, %.4f allocs/exchange, %d socket bytes",
		res.PerSecond, res.Completion, res.AllocsPerExchange, socketBytes)
}

// TestNodeRecordIsOneCacheLine pins the heap runtime's node layout: the
// hot record an exchange touches is exactly one 64 B cache line. A field
// added to rnode that the exchange fast path does not need belongs in
// rcold instead (see the rnode doc comment).
func TestNodeRecordIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(rnode{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(rnode{}) = %d B, want 64 (one cache line)", got)
	}
}

// TestNodeStatsSumToRuntimeStats pins the split of the per-node counters
// between the hot line and the cold record: under loss, latency jitter,
// a reply timeout shorter than the worst round trip and epoch restarts,
// every counter moves, and the per-node Stats summed over all nodes
// equal the shard-level Runtime.Stats field by field. A counter bumped
// in the wrong array, or in neither, breaks the identity.
func TestNodeStatsSumToRuntimeStats(t *testing.T) {
	clock, err := epoch.NewClock(time.Now(), 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	const size = 64
	rt, err := NewRuntime(RuntimeConfig{
		Size:   size,
		Schema: core.AverageSchema(),
		Value:  func(i int) float64 { return float64(i) },
		Endpoints: fabricEndpoints(transport.NewFabric(
			transport.WithSeed(43),
			transport.WithDropProbability(0.2),
			transport.WithLatency(time.Millisecond, time.Millisecond),
		), 2),
		CycleLength:  2 * time.Millisecond,
		ReplyTimeout: 2500 * time.Microsecond,
		Clock:        clock,
		Seed:         43,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background())
	time.Sleep(400 * time.Millisecond)
	rt.Stop()

	var sum Stats
	for i := range size {
		st := rt.NodeStats(i)
		sum.Initiated += st.Initiated
		sum.Replies += st.Replies
		sum.Timeouts += st.Timeouts
		sum.LateReplies += st.LateReplies
		sum.LateGivenUp += st.LateGivenUp
		sum.Served += st.Served
		sum.EpochSwitches += st.EpochSwitches
		sum.StaleDropped += st.StaleDropped
		sum.SendErrors += st.SendErrors
		sum.BusyDropped += st.BusyDropped
		sum.PeerBusy += st.PeerBusy
	}
	want := rt.Stats()
	for _, f := range []struct {
		name      string
		got, want uint64
		mustMove  bool
	}{
		{"Initiated", sum.Initiated, want.Initiated, true},
		{"Replies", sum.Replies, want.Replies, true},
		{"Timeouts", sum.Timeouts, want.Timeouts, true},
		{"LateReplies", sum.LateReplies, want.LateReplies, true},
		{"LateGivenUp", sum.LateGivenUp, want.LateGivenUp, false},
		{"Served", sum.Served, want.Served, true},
		{"EpochSwitches", sum.EpochSwitches, want.EpochSwitches, true},
		{"StaleDropped", sum.StaleDropped, want.StaleDropped, true},
		{"SendErrors", sum.SendErrors, want.SendErrors, false},
		{"BusyDropped", sum.BusyDropped, want.BusyDropped, true},
		{"PeerBusy", sum.PeerBusy, want.PeerBusy, true},
	} {
		if f.got != f.want {
			t.Errorf("%s: per-node sum %d, runtime %d", f.name, f.got, f.want)
		}
		if f.mustMove && f.want == 0 {
			t.Errorf("%s never moved; the run no longer exercises it", f.name)
		}
	}
}
