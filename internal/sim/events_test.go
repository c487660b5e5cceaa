package sim_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Tests of the asynchronous protocol (Figure 1) on the kernel's
// event-driven path: every node wakes after its own waiting time and
// exchanges with a random neighbor, with no global cycles.

// events parameterizes one event-driven run; time is in units of Δt,
// so variance snapshots land at integer times.
type events struct {
	Graph    topology.Graph
	Values   []float64
	Wait     sim.WaitPolicy // nil means constant Δt
	Cycles   int
	LossProb float64 // drops whole exchanges
	Seed     uint64
}

// eventResult reports one event-driven run.
type eventResult struct {
	Variances []float64 // σ² at t = 0, Δt, 2Δt, …
	Exchanges int
	FinalMean float64
}

// run executes the configuration on a fresh kernel seeded with Seed.
func (cfg events) run() (*eventResult, error) {
	if cfg.Wait == nil {
		cfg.Wait = sim.ConstantWait{}
	}
	k, err := sim.New(sim.Config{
		Graph: cfg.Graph,
		Wait:  cfg.Wait,
		Loss:  sim.SymmetricLoss{P: cfg.LossProb},
		RNG:   xrand.New(cfg.Seed),
	})
	if err != nil {
		return nil, err
	}
	if err := k.SetValues(0, cfg.Values); err != nil {
		return nil, err
	}
	res := &eventResult{Variances: []float64{stats.Variance(k.Column(0))}}
	res.Exchanges, err = k.RunEvents(context.Background(), cfg.Cycles, func() {
		res.Variances = append(res.Variances, stats.Variance(k.Column(0)))
	})
	if err != nil {
		return nil, err
	}
	res.FinalMean = stats.Mean(k.Column(0))
	return res, nil
}

func TestDeterministicForSeed(t *testing.T) {
	rng := xrand.New(2)
	g := mustComplete(t, 100)
	values := gaussian(100, rng)
	run := func() *eventResult {
		r, err := events{Graph: g, Values: values, Cycles: 10, Seed: 7}.run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Exchanges != b.Exchanges {
		t.Fatalf("exchange counts differ: %d vs %d", a.Exchanges, b.Exchanges)
	}
	for i := range a.Variances {
		if a.Variances[i] != b.Variances[i] {
			t.Fatalf("variance trajectories differ at %d", i)
		}
	}
}

func TestMassConservation(t *testing.T) {
	rng := xrand.New(3)
	g := mustComplete(t, 500)
	values := gaussian(500, rng)
	wantMean := stats.Mean(values)
	for _, wait := range []sim.WaitPolicy{sim.ConstantWait{}, sim.ExponentialWait{}} {
		res, err := events{Graph: g, Values: values, Wait: wait, Cycles: 15, Seed: 4}.run()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.FinalMean-wantMean) > 1e-12*math.Max(1, math.Abs(wantMean))+1e-12 {
			t.Errorf("%s: mean drifted %.15g → %.15g", wait.Name(), wantMean, res.FinalMean)
		}
	}
}

func TestVarianceSnapshotCount(t *testing.T) {
	rng := xrand.New(5)
	g := mustComplete(t, 50)
	res, err := events{Graph: g, Values: gaussian(50, rng), Cycles: 12, Seed: 6}.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variances) != 13 {
		t.Fatalf("got %d snapshots, want 13", len(res.Variances))
	}
}

// measureWaitRate returns the mean per-Δt variance reduction over the
// first cycles of repeated runs.
func measureWaitRate(t *testing.T, wait sim.WaitPolicy, n, runs int, seed uint64) float64 {
	t.Helper()
	var acc stats.Running
	for run := 0; run < runs; run++ {
		rng := xrand.New(seed + uint64(run)*104729)
		g := mustComplete(t, n)
		res, err := events{
			Graph:  g,
			Values: gaussian(n, rng),
			Wait:   wait,
			Cycles: 8,
			Seed:   seed + uint64(run)*7919,
		}.run()
		if err != nil {
			t.Fatal(err)
		}
		// Geometric mean over the sampled trajectory.
		first, last := res.Variances[0], res.Variances[len(res.Variances)-1]
		if first > 0 && last > 0 {
			acc.Add(math.Pow(last/first, 1.0/8))
		}
	}
	return acc.Mean()
}

func TestConstantWaitMatchesSeqRate(t *testing.T) {
	// §1.1: constant Δt ⇒ every node initiates exactly once per unit
	// time ⇒ GETPAIR_SEQ dynamics ⇒ rate ≈ 1/(2√e).
	got := measureWaitRate(t, sim.ConstantWait{}, 5000, 8, 10)
	if got < 0.28 || got > 0.33 {
		t.Fatalf("constant-wait rate %.4f, want ≈ 0.30", got)
	}
}

func TestExponentialWaitMatchesRandRate(t *testing.T) {
	// §3.3.2: exponential waiting times reproduce GETPAIR_RAND ⇒ rate
	// ≈ 1/e.
	got := measureWaitRate(t, sim.ExponentialWait{}, 5000, 8, 11)
	if math.Abs(got-1/math.E) > 0.02 {
		t.Fatalf("exponential-wait rate %.4f, want ≈ %.4f", got, 1/math.E)
	}
}

func TestWaitingPolicyOrdering(t *testing.T) {
	// Constant waits must beat exponential waits — the practical
	// protocol's advantage over fully random activation.
	constant := measureWaitRate(t, sim.ConstantWait{}, 3000, 6, 12)
	exponential := measureWaitRate(t, sim.ExponentialWait{}, 3000, 6, 13)
	if constant >= exponential {
		t.Fatalf("constant %.4f not faster than exponential %.4f", constant, exponential)
	}
}

func TestExchangeCountMatchesRate(t *testing.T) {
	// Constant wait: each node initiates once per Δt ⇒ ≈ n·cycles
	// exchanges total.
	rng := xrand.New(14)
	n, cycles := 1000, 10
	g := mustComplete(t, n)
	res, err := events{Graph: g, Values: gaussian(n, rng), Cycles: cycles, Seed: 15}.run()
	if err != nil {
		t.Fatal(err)
	}
	want := n * cycles
	if res.Exchanges < want*9/10 || res.Exchanges > want*11/10 {
		t.Fatalf("exchanges = %d, want ≈ %d", res.Exchanges, want)
	}
}

func TestLossReducesExchangesAndSlows(t *testing.T) {
	rng := xrand.New(16)
	n := 2000
	g := mustComplete(t, n)
	values := gaussian(n, rng)
	lossless, err := events{Graph: g, Values: values, Cycles: 10, Seed: 17}.run()
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := events{Graph: g, Values: values, Cycles: 10, LossProb: 0.5, Seed: 17}.run()
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Exchanges >= lossless.Exchanges {
		t.Fatalf("loss did not reduce exchanges: %d vs %d", lossy.Exchanges, lossless.Exchanges)
	}
	llRatio := lossless.Variances[10] / lossless.Variances[0]
	lsRatio := lossy.Variances[10] / lossy.Variances[0]
	if lsRatio <= llRatio {
		t.Fatalf("loss did not slow convergence: %g vs %g", lsRatio, llRatio)
	}
	// Symmetric loss conserves mass exactly.
	if math.Abs(lossy.FinalMean-stats.Mean(values)) > 1e-12 {
		t.Fatal("symmetric loss violated mass conservation")
	}
}

func TestRunsOnRandomGraph(t *testing.T) {
	rng := xrand.New(18)
	g, err := topology.NewKRegular(2000, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := events{Graph: g, Values: gaussian(2000, rng), Cycles: 10, Seed: 19}.run()
	if err != nil {
		t.Fatal(err)
	}
	if ratio := res.Variances[10] / res.Variances[0]; ratio > 1e-4 {
		t.Fatalf("20-regular event sim stuck: ratio %g", ratio)
	}
}
