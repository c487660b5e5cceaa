package repro

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"
)

// TestSetValueRoundTripsBothRuntimes: live value injection is
// mass-conserving — after every node's value is replaced mid-run, the
// re-converged estimate lands on the new population mean (not a
// half-injected one, which is what a push/mutate/merge interleaving
// would leave), and telemetry's true mean tracks the injected values.
func TestSetValueRoundTripsBothRuntimes(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		const n = 24
		sys, err := Open(
			WithSize(n),
			WithValues(func(i int) float64 { return float64(i) }), // mean 11.5
			WithCycleLength(2*time.Millisecond),
			WithSeed(7),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		est, err := sys.WaitConverged(ctx, "avg", 1e-6)
		if err != nil {
			t.Fatalf("initial convergence: %v (last %+v)", err, est)
		}
		if math.Abs(est.Mean-11.5) > 0.05 {
			t.Fatalf("initial mean %v, want ≈ 11.5", est.Mean)
		}

		// Inject a full set of new values while exchanges are running:
		// node i's value doubles, so the population mean moves to 23.
		for i := 0; i < n; i++ {
			if err := sys.SetValue(i, "avg", float64(2*i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.SetValue(0, "nope", 1); err == nil {
			t.Fatal("SetValue accepted an unknown field")
		}
		if err := sys.SetValue(n, "avg", 1); err == nil {
			t.Fatal("SetValue accepted an out-of-range node")
		}

		est, err = sys.WaitConverged(ctx, "avg", 1e-6)
		if err != nil {
			t.Fatalf("post-injection convergence: %v (last %+v)", err, est)
		}
		if math.Abs(est.Mean-23) > 0.05 {
			t.Fatalf("post-injection mean %v, want ≈ 23 (injected mass leaked)", est.Mean)
		}
		tel := sys.Telemetry()
		if math.Abs(tel.TrueMean-23) > 1e-9 {
			t.Fatalf("telemetry true mean %v, want 23", tel.TrueMean)
		}
	})
}

// TestScenarioFailReviveLoss: live fault injection against a running
// system. Failed nodes leave the live population immediately (reduces
// and estimates skip them), peers keep converging among themselves,
// revived nodes rejoin as fresh joiners, and the in-memory fabric's
// loss probability is changeable mid-run.
func TestScenarioFailReviveLoss(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		const n = 32
		sys, err := Open(
			WithSize(n),
			WithValues(func(i int) float64 { return float64(i) }),
			WithCycleLength(2*time.Millisecond),
			WithSeed(3),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := sys.WaitConverged(ctx, "avg", 1e-6); err != nil {
			t.Fatalf("initial convergence: %v", err)
		}

		const failed = 8
		for i := 0; i < failed; i++ {
			if err := sys.FailNode(i); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.FailNode(n); err == nil {
			t.Fatal("FailNode accepted an out-of-range node")
		}
		if got := sys.FailedNodes(); got != failed {
			t.Fatalf("FailedNodes = %d, want %d", got, failed)
		}
		est, err := sys.Query(ctx, "avg")
		if err != nil {
			t.Fatal(err)
		}
		if est.Nodes != n-failed {
			t.Fatalf("estimate folds %d nodes after %d failures, want %d", est.Nodes, failed, n-failed)
		}

		// The survivors keep gossiping: still converged among
		// themselves, with the failed nodes contributing nothing new.
		if _, err := sys.WaitConverged(ctx, "avg", 1e-6); err != nil {
			t.Fatalf("convergence among survivors: %v", err)
		}

		// Live loss injection on the in-memory fabric.
		if err := sys.SetLoss(0.1); err != nil {
			t.Fatal(err)
		}
		if err := sys.SetLoss(1.5); err == nil {
			t.Fatal("SetLoss accepted p > 1")
		}
		if err := sys.SetLoss(0); err != nil {
			t.Fatal(err)
		}

		for i := 0; i < failed; i++ {
			if err := sys.ReviveNode(i); err != nil {
				t.Fatal(err)
			}
		}
		if got := sys.FailedNodes(); got != 0 {
			t.Fatalf("FailedNodes = %d after revival, want 0", got)
		}
		est, err = sys.Query(ctx, "avg")
		if err != nil {
			t.Fatal(err)
		}
		if est.Nodes != n {
			t.Fatalf("estimate folds %d nodes after revival, want %d", est.Nodes, n)
		}
		if _, err := sys.WaitConverged(ctx, "avg", 1e-6); err != nil {
			t.Fatalf("post-revival convergence: %v", err)
		}
	})
}

// TestWatchHubScale100k is the fan-out scale gate behind the serve
// layer: 10⁵ subscribers on one field must cost one shared reduce per
// cycle, zero goroutines per subscriber and bounded memory; stalled
// subscribers see latest-wins snapshots with their drop counts; and
// unsubscribing releases everything. ~10 s of wall clock, so -short
// skips it (CI runs it in the full test job).
func TestWatchHubScale100k(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-subscriber fan-out gate is not a -short test")
	}
	const (
		subscribers = 100_000
		cycle       = 100 * time.Millisecond
	)
	sys, err := Open(
		WithSize(64),
		WithCycleLength(cycle),
		WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	goroutinesBefore := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	chans := make([]<-chan Estimate, subscribers)
	for i := range chans {
		ch, err := sys.Watch(ctx, "avg")
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}

	// No per-subscriber goroutine: 10⁵ subscribers add one hub
	// goroutine, not 10⁵ of anything.
	if g := runtime.NumGoroutine(); g > goroutinesBefore+10 {
		t.Fatalf("%d goroutines after %d subscriptions (was %d); per-subscriber goroutines leak",
			g, subscribers, goroutinesBefore)
	}

	// Bounded memory: a subscriber is a one-slot channel plus a cursor —
	// O(100 B). Allow generous slack over the ~40 MB expected.
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 256<<20 {
		t.Fatalf("heap grew %d MB for %d subscribers; per-subscriber state is not O(1)",
			grew>>20, subscribers)
	}

	// One shared reduce per cycle regardless of subscriber count: over a
	// window of W cycles the hub may reduce ~W times (3W bound absorbs
	// ticker jitter); per-subscriber reduction would be ≥ 10⁵·W.
	const window = 10
	before2 := sys.reduceCount.Load()
	time.Sleep(window * cycle)
	delta := sys.reduceCount.Load() - before2
	if delta == 0 {
		t.Fatal("hub performed no reductions during the window")
	}
	if delta > 3*window {
		t.Fatalf("%d reductions over %d cycles with %d subscribers; fan-out is not shared",
			delta, window, subscribers)
	}

	// Latest-wins to stalled subscribers: nobody has read anything, yet
	// every sampled channel holds the most recent snapshot (high Seq)
	// with its accumulated drop count, not a stale first tick.
	for _, i := range []int{0, subscribers / 2, subscribers - 1} {
		select {
		case est, ok := <-chans[i]:
			if !ok {
				t.Fatalf("subscriber %d: channel closed early", i)
			}
			if est.Seq < 2 {
				t.Fatalf("subscriber %d: stalled channel held Seq %d; delivery is not latest-wins", i, est.Seq)
			}
			if est.Dropped < 1 {
				t.Fatalf("subscriber %d: %d skipped snapshots went uncounted (Dropped %d)", i, est.Seq-1, est.Dropped)
			}
		default:
			t.Fatalf("subscriber %d: no snapshot buffered", i)
		}
	}

	// Unsubscribe everyone: within a few cycles the hub prunes, closes
	// every channel and exits; memory and goroutines return to baseline.
	cancel()
	deadline := time.Now().Add(30 * cycle)
	for {
		if _, ok := <-chans[subscribers-1]; !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscriber channels not closed after cancellation")
		}
	}
	sys.watchMu.Lock()
	hubs := len(sys.hubs)
	sys.watchMu.Unlock()
	if hubs != 0 {
		t.Fatalf("%d hubs still live after the last unsubscribe", hubs)
	}
	if g := runtime.NumGoroutine(); g > goroutinesBefore+10 {
		t.Fatalf("%d goroutines after unsubscribe (baseline %d); the hub leaked", g, goroutinesBefore)
	}
}
