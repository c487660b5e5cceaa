package repro

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

// adversarySystem opens an n-node system with values
// i%10 (honest mean ≈ 4.5) and a fast cycle, plus any extra options.
func adversarySystem(t *testing.T, n int, extra ...Option) *System {
	t.Helper()
	opts := append([]Option{
		WithSize(n),
		WithValues(func(i int) float64 { return float64(i % 10) }),
		WithCycleLength(2 * time.Millisecond),
		WithSeed(19),
	}, extra...)
	sys, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// corruption measures the live estimate-corruption |mean − true mean|
// over the honest population.
func corruption(t *testing.T, sys *System) float64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	est, err := sys.Query(ctx, "avg")
	if err != nil {
		t.Fatal(err)
	}
	tel := sys.Telemetry()
	if math.IsNaN(tel.TrueMean) {
		t.Fatal("telemetry true mean is NaN on an in-memory shape")
	}
	return math.Abs(est.Mean - tel.TrueMean)
}

// TestAdversaryCorruptionBothRuntimes is the live-runtime half of the
// PR's acceptance criterion (the kernel half lives in the scenario
// package): 5% extreme-value adversaries corrupt the unprotected
// aggregate far beyond the honest noise floor, while the same attack
// against the robust-merge countermeasures (value clamp + trimmed
// merge) stays bounded near it.
func TestAdversaryCorruptionBothRuntimes(t *testing.T) {
	const (
		n = 200
		// Honest runs settle within ~0.05 of the true mean at this scale
		// (see TestSetValueRoundTripsBothRuntimes); the acceptance bar is
		// an order of magnitude of corruption beyond that.
		noiseFloor = 0.05
		attackTime = 600 * time.Millisecond // ≈ 300 protocol cycles
	)
	adv := WithAdversaries("extreme-value", 0.05, 1000, 0)
	t.Run("heap", func(t *testing.T) {
		t.Run("baseline", func(t *testing.T) {
			sys := adversarySystem(t, n, adv)
			if got := sys.AdversaryCount(); got != 10 {
				t.Fatalf("AdversaryCount = %d, want 10", got)
			}
			time.Sleep(attackTime)
			c := corruption(t, sys)
			if c < 10*noiseFloor {
				t.Fatalf("baseline corruption %.3f under 5%% extreme-value adversaries, want > %.2f (poison did not propagate)",
					c, 10*noiseFloor)
			}
			tel := sys.Telemetry()
			if tel.AdversaryNodes != 10 {
				t.Fatalf("telemetry reports %d adversary nodes, want 10", tel.AdversaryNodes)
			}
			t.Logf("baseline corruption: %.2f", c)
		})
		t.Run("robust", func(t *testing.T) {
			sys := adversarySystem(t, n, adv, WithRobustMerge(RobustConfig{
				Clamp: true, ClampMin: -100, ClampMax: 100,
				Trim: true, TrimK: 8,
			}))
			time.Sleep(attackTime)
			c := corruption(t, sys)
			if c > 10*noiseFloor {
				t.Fatalf("robust corruption %.3f, want ≤ %.2f (countermeasures failed to contain the attack)",
					c, 10*noiseFloor)
			}
			if rej := sys.RobustRejected(); rej == 0 {
				t.Fatal("robust merge rejected nothing while under active attack")
			}
			t.Logf("robust corruption: %.4f, rejected %d halves", c, sys.RobustRejected())
		})
	})
}

// TestAdversaryLiveInjectionAndRestore drives the live reconfiguration
// path (POST /v1/scenario's backend): mark adversaries on a converged
// running system, observe them leave the reduced population, restore
// honesty with fraction 0, and re-converge.
func TestAdversaryLiveInjectionAndRestore(t *testing.T) {
	const n = 64
	t.Run("heap", func(t *testing.T) {
		sys := adversarySystem(t, n)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := sys.WaitConverged(ctx, "avg", 1e-6); err != nil {
			t.Fatalf("initial convergence: %v", err)
		}

		if err := sys.SetAdversaries("colluding", 0.1, 0, 42); err != nil {
			t.Fatal(err)
		}
		count := sys.AdversaryCount()
		if count == 0 {
			t.Fatal("no adversaries after injection")
		}
		est, err := sys.Query(ctx, "avg")
		if err != nil {
			t.Fatal(err)
		}
		if est.Nodes != n-count {
			t.Fatalf("estimate folds %d nodes with %d adversaries, want %d (adversaries must not vote)",
				est.Nodes, count, n-count)
		}

		// Validation: unknown behaviors and out-of-range fractions are
		// rejected without touching the running system.
		if err := sys.SetAdversaries("gaslighting", 0.1, 0, 0); err == nil {
			t.Fatal("SetAdversaries accepted an unknown behavior")
		}
		if err := sys.SetAdversaries("extreme-value", 1.0, 0, 0); err == nil {
			t.Fatal("SetAdversaries accepted fraction 1.0 (no honest nodes left)")
		}
		if got := sys.AdversaryCount(); got != count {
			t.Fatalf("failed validation changed the adversary set: %d → %d", count, got)
		}

		// Fraction 0 restores every node to honest operation.
		if err := sys.SetAdversaries("colluding", 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		if got := sys.AdversaryCount(); got != 0 {
			t.Fatalf("AdversaryCount = %d after restore, want 0", got)
		}
		est, err = sys.Query(ctx, "avg")
		if err != nil {
			t.Fatal(err)
		}
		if est.Nodes != n {
			t.Fatalf("estimate folds %d nodes after restore, want %d", est.Nodes, n)
		}
		if _, err := sys.WaitConverged(ctx, "avg", 1e-6); err != nil {
			t.Fatalf("post-restore convergence: %v", err)
		}
	})
}

// TestQueryRobustMedianOfMeans: the robust read path. A population with
// a few wildly corrupted values moves the plain mean but not the
// median-of-means estimate, both as a per-query override (QueryRobust)
// and as the system-wide default (WithMedianOfMeans).
func TestQueryRobustMedianOfMeans(t *testing.T) {
	const n = 60 // multiple of 10 so the i%10 population mean is exactly 4.5
	sys := adversarySystem(t, n)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := sys.WaitConverged(ctx, "avg", 1e-6); err != nil {
		t.Fatal(err)
	}
	// Corrupt two node states directly (a stand-in for poison the merge
	// layer failed to catch): the plain mean jumps, median-of-means holds.
	for _, i := range []int{3, 40} {
		if err := sys.SetValue(i, "avg", 1e6); err != nil {
			t.Fatal(err)
		}
	}
	plain, err := sys.Query(ctx, "avg")
	if err != nil {
		t.Fatal(err)
	}
	robustEst, err := sys.QueryRobust(ctx, "avg", 8)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Mean < 1000 {
		t.Fatalf("plain mean %.1f did not register the corruption", plain.Mean)
	}
	if math.Abs(robustEst.Mean-4.5) > 1.0 {
		t.Fatalf("median-of-means estimate %.2f moved with the corrupted tail, want ≈ 4.5", robustEst.Mean)
	}
	if robustEst.Nodes != n {
		t.Fatalf("robust estimate folds %d nodes, want %d", robustEst.Nodes, n)
	}
	if _, err := sys.QueryRobust(ctx, "avg", 0); err == nil {
		t.Fatal("QueryRobust accepted 0 buckets")
	}
}

// TestSetValueFailReviveRace hammers the three live mutation paths —
// SetValue, FailNode, ReviveNode — concurrently with each other and
// with running exchanges and reductions. The assertion
// is the race detector plus liveness: the system still answers queries
// and re-converges once the chaos stops.
func TestSetValueFailReviveRace(t *testing.T) {
	const n = 50 // multiple of 10 so the i%10 population mean is exactly 4.5
	t.Run("heap", func(t *testing.T) {
		sys := adversarySystem(t, n)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()

		stop := make(chan struct{})
		var wg sync.WaitGroup
		worker := func(fn func(i int)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						fn(i)
					}
				}
			}()
		}
		worker(func(i int) { _ = sys.SetValue(i%n, "avg", float64(i%10)) })
		worker(func(i int) { _ = sys.FailNode(i % n) })
		worker(func(i int) { _ = sys.ReviveNode(i % n) })
		worker(func(i int) { _, _ = sys.Query(ctx, "avg") })
		time.Sleep(300 * time.Millisecond)
		close(stop)
		wg.Wait()

		// Settle: revive everyone, set a known population, converge.
		for i := 0; i < n; i++ {
			_ = sys.ReviveNode(i)
		}
		if got := sys.FailedNodes(); got != 0 {
			t.Fatalf("FailedNodes = %d after full revival, want 0", got)
		}
		for i := 0; i < n; i++ {
			if err := sys.SetValue(i, "avg", float64(i%10)); err != nil {
				t.Fatal(err)
			}
		}
		est, err := sys.WaitConverged(ctx, "avg", 1e-6)
		if err != nil {
			t.Fatalf("post-chaos convergence: %v (last %+v)", err, est)
		}
		// Crash churn perturbs total mass by design — a node failing
		// mid-exchange takes its in-flight half with it, and a revival
		// rejoins fresh — so this is a sanity bound, not the exact
		// mass-conservation check (that's TestSetValueRoundTripsBothRuntimes,
		// which mutates without concurrent crashes).
		if math.Abs(est.Mean-4.5) > 1.0 {
			t.Fatalf("post-chaos mean %.3f, want ≈ 4.5 (mutation raced an exchange into gross mass leakage)", est.Mean)
		}
	})
}
