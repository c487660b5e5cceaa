package repro

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

// TestOpenValidatesOptions: option errors surface from Open, not from
// a half-started system.
func TestOpenValidatesOptions(t *testing.T) {
	cases := map[string][]Option{
		"zero size":        {WithSize(0)},
		"nil schema":       {WithSchema(nil)},
		"bad cycle":        {WithCycleLength(0)},
		"bad epoch":        {WithEpochLength(-time.Second)},
		"bad view":         {WithMembershipView(0)},
		"empty tcp listen": {WithTCP("")},
		"lonely node":      {WithSize(1)}, // in-memory size-1 has nobody to gossip with
	}
	for name, opts := range cases {
		if _, err := Open(opts...); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestOpenWatchReduceGoroutineAndHeap: the runtime behind Open
// converges, and Watch snapshots, Reduce folds and point queries
// agree.
func TestOpenWatchReduceGoroutineAndHeap(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		sys, err := Open(
			WithSize(24),
			WithValues(func(i int) float64 { return float64(i) }), // mean 11.5
			WithCycleLength(2*time.Millisecond),
			WithReplyTimeout(time.Second),
			WithSeed(11),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		est, err := sys.WaitConverged(ctx, "avg", 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if est.Nodes != 24 || math.Abs(est.Mean-11.5) > 0.1 {
			t.Fatalf("converged snapshot: %+v", est)
		}
		var run Running
		if err := sys.Reduce(ctx, "avg", &run); err != nil {
			t.Fatal(err)
		}
		if run.N() != 24 || math.Abs(run.Mean()-est.Mean) > 0.05 {
			t.Fatalf("Reduce disagrees with Watch: n=%d mean=%g vs %g", run.N(), run.Mean(), est.Mean)
		}
		if _, err := sys.Query(ctx, "bogus"); err == nil {
			t.Fatal("unknown field accepted")
		}
	})
}

// TestWatchCancellationWithinOneCycle: cancelling the watch context
// closes the channel promptly (the acceptance bound is one cycle; the
// assertion allows scheduler slack).
func TestWatchCancellationWithinOneCycle(t *testing.T) {
	const cycle = 20 * time.Millisecond
	sys, err := Open(
		WithSize(8),
		WithCycleLength(cycle),
		WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	ctx, cancel := context.WithCancel(context.Background())
	ch, err := sys.Watch(ctx, "avg")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := <-ch; !ok {
		t.Fatal("watch channel closed before cancellation")
	}
	start := time.Now()
	cancel()
	deadline := time.After(5 * cycle)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				if elapsed := time.Since(start); elapsed > 4*cycle {
					t.Fatalf("channel closed after %v (cycle %v)", elapsed, cycle)
				}
				return
			}
		case <-deadline:
			t.Fatal("watch channel did not close after cancellation")
		}
	}
}

// TestWatchClosesOnSystemClose: Close ends live watches too.
func TestWatchClosesOnSystemClose(t *testing.T) {
	sys, err := Open(WithSize(8), WithCycleLength(5*time.Millisecond), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := sys.Watch(context.Background(), "avg")
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("watch channel survived Close")
		}
	}
}

// TestOpenContextScopesLifetime: cancelling the WithContext context
// stops the system as Close would — exchanges cease AND live watches
// (even ones holding their own still-live context) close, because the
// cancellation closes the whole System, not just the engine under it.
func TestOpenContextScopesLifetime(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sys, err := Open(
		WithContext(ctx),
		WithSize(8),
		WithCycleLength(5*time.Millisecond),
		WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	watch, err := sys.Watch(context.Background(), "avg")
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Stats().Initiated
	cancel()
	deadline := time.After(2 * time.Second)
	for open := true; open; {
		select {
		case _, ok := <-watch:
			open = ok
		case <-deadline:
			t.Fatal("watch channel survived the system context's cancellation")
		}
	}
	time.Sleep(100 * time.Millisecond)
	after := sys.Stats().Initiated
	time.Sleep(100 * time.Millisecond)
	if final := sys.Stats().Initiated; final > after+1 {
		t.Fatalf("system kept exchanging after context cancel: %d → %d → %d", before, after, final)
	}
}

// TestWatchFanOutSharesReduces: however many subscribers watch one
// field, its state is reduced once per cycle — the per-field fan-out
// hub decouples observation cost from subscriber count. Each
// subscriber still receives live estimates of the shared sequence.
func TestWatchFanOutSharesReduces(t *testing.T) {
	const cycle = 10 * time.Millisecond
	const subscribers = 16
	sys, err := Open(
		WithSize(12),
		WithCycleLength(cycle),
		WithSeed(21),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

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

	// Every subscriber must see live estimates (first wait includes the
	// hub's warm-up tick, so give it generous slack).
	for i, ch := range chans {
		select {
		case est, ok := <-ch:
			if !ok || est.Field != "avg" || est.Nodes != 12 {
				t.Fatalf("subscriber %d: estimate %+v ok=%v", i, est, ok)
			}
		case <-time.After(100 * cycle):
			t.Fatalf("subscriber %d starved", i)
		}
	}

	// Measure reductions over a window of W cycles with all subscribers
	// attached: one shared hub must reduce ~W times, not ~W×16. The
	// bound of 3W leaves room for ticker jitter while failing hard on
	// per-subscriber reduction (which would be ≥ 16W).
	const window = 20
	before := sys.reduceCount.Load()
	time.Sleep(window * cycle)
	delta := sys.reduceCount.Load() - before
	if delta == 0 {
		t.Fatal("hub performed no reductions during the window")
	}
	if delta > 3*window {
		t.Fatalf("%d reductions over %d cycles with %d subscribers; fan-out is not shared (want ≤ %d)",
			delta, window, subscribers, 3*window)
	}

	// The shared sequence: two subscribers' next estimates come from the
	// same hub counter (monotone, same field).
	a, b := <-chans[0], <-chans[1]
	if a.Field != b.Field {
		t.Fatalf("subscribers disagree on field: %q vs %q", a.Field, b.Field)
	}

	// Cancelling the shared context closes every subscriber channel
	// within a few cycles, and the hub winds down.
	cancel()
	deadline := time.After(20 * cycle)
	for i, ch := range chans {
		for open := true; open; {
			select {
			case _, ok := <-ch:
				open = ok
			case <-deadline:
				t.Fatalf("subscriber %d channel survived cancellation", i)
			}
		}
	}
}

// TestOpenTCPSingleNodePair: two size-1 TCP systems (the aggnode
// shape) find each other through gossip and converge. Exponential
// waits break the two-node constant-wait pathology where mutual
// busy-nacks phase-lock both initiators (the historical facade test
// used the same policy for the same reason).
func TestOpenTCPSingleNodePair(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP sockets")
	}
	a, err := Open(
		WithTCP("127.0.0.1:0"),
		WithValue(2),
		WithCycleLength(5*time.Millisecond),
		WithReplyTimeout(500*time.Millisecond),
		WithWaitPolicy(ExponentialWait),
		WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(
		WithTCP("127.0.0.1:0", a.Nodes()[0].Addr()),
		WithValue(4),
		WithCycleLength(5*time.Millisecond),
		WithReplyTimeout(500*time.Millisecond),
		WithWaitPolicy(ExponentialWait),
		WithSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		ea, _ := a.Nodes()[0].Estimate("avg")
		eb, _ := b.Nodes()[0].Estimate("avg")
		if math.Abs(ea-3) < 1e-9 && math.Abs(eb-3) < 1e-9 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("TCP pair stuck at %g / %g", ea, eb)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOpenTCPSingleNodeShape pins the deployable single-node shape (the
// aggnode default and every OpenCluster member) on the runtime: one
// worker, one node at the endpoint's "#0" sub-address, the TCP and
// membership families registered per shard, robust merge installable
// (it gates what remote peers report) and adversaries refused (a lone
// node cannot keep two honest ones). With no seeds its view is empty,
// so over several cycles it initiates nothing and dials nobody, itself
// included.
func TestOpenTCPSingleNodeShape(t *testing.T) {
	const cycle = 10 * time.Millisecond
	sys, err := Open(WithTCP("127.0.0.1:0"), WithCycleLength(cycle))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if got := sys.Workers(); got != 1 {
		t.Errorf("Workers() = %d, want 1", got)
	}
	if addr := sys.Nodes()[0].Addr(); !strings.HasSuffix(addr, "#0") || strings.Count(addr, "#") != 1 {
		t.Errorf("node address %q, want the endpoint's #0 sub-address", addr)
	}
	exposition := string(sys.Metrics().AppendPrometheus(nil))
	for _, family := range []string{
		"repro_transport_tcp_dials_total",
		"repro_transport_tcp_bytes_sent_total",
		"repro_transport_tcp_bytes_received_total",
		"repro_transport_tcp_inbox_dropped_total",
		"repro_membership_view_entries",
		"repro_membership_observed_total",
		"repro_membership_forgotten_total",
		"repro_membership_digest_dropped_total",
	} {
		if !strings.Contains(exposition, family+`{shard="0"}`) {
			t.Errorf("registry lacks %s{shard=\"0\"}", family)
		}
	}
	if err := sys.SetRobust(RobustConfig{Clamp: true, ClampMin: -1, ClampMax: 1}); err != nil {
		t.Errorf("SetRobust on a single node: %v", err)
	}
	if err := sys.SetAdversaries("", 0.5, 0, 0); err == nil {
		t.Error("SetAdversaries made the only node an adversary")
	}
	time.Sleep(5 * cycle)
	if st := sys.Stats(); st.Initiated != 0 || st.PeerBusy != 0 {
		t.Errorf("lone node initiated %d exchanges (%d nacked), want none", st.Initiated, st.PeerBusy)
	}
	const dials = `repro_transport_tcp_dials_total{shard="0"} `
	for _, line := range strings.Split(string(sys.Metrics().AppendPrometheus(nil)), "\n") {
		if strings.HasPrefix(line, dials) && line != dials+"0" {
			t.Errorf("lone node dialled: %s", line)
		}
	}
}

// TestTransferSingleNodeJoinsTCPPopulation joins a single-node TCP
// system to a 64-node TCP system over loopback: the two serve each
// other's pushes across the socket, so each must answer with the
// transfer the other adds. An injection on either side mid-run must land
// whole in the combined Σ, which every node converges on.
func TestTransferSingleNodeJoinsTCPPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP sockets")
	}
	const n = 64
	pop, err := Open(
		WithTCP("127.0.0.1:0"),
		WithSize(n),
		WithWorkers(2),
		WithValues(func(i int) float64 { return float64(i % 8) }), // Σ 224
		WithCycleLength(5*time.Millisecond),
		WithReplyTimeout(200*time.Millisecond),
		WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer pop.Close()
	single, err := Open(
		WithTCP("127.0.0.1:0", pop.Nodes()[0].Addr()),
		WithValue(31),
		WithCycleLength(5*time.Millisecond),
		WithReplyTimeout(200*time.Millisecond),
		WithSeed(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	nodes := append(append([]*Node(nil), pop.Nodes()...), single.Nodes()...)

	// Let the single node join the exchanges, then inject on both sides
	// while they run: +65 on the single node, +130 on a population node.
	deadline := time.Now().Add(20 * time.Second)
	for single.Nodes()[0].Stats().Served == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no population node ever pushed to the single node")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := single.SetValue(0, "avg", 31+65); err != nil {
		t.Fatal(err)
	}
	if err := pop.SetValue(5, "avg", 5+130); err != nil {
		t.Fatal(err)
	}
	want := float64(224+31+65+130) / (n + 1)
	for {
		worst := 0.0
		for _, nd := range nodes {
			est, err := nd.Estimate("avg")
			if err != nil {
				t.Fatal(err)
			}
			worst = math.Max(worst, math.Abs(est-want))
		}
		if worst < 1e-6 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("single node and population: worst estimate %g off the combined mean %g", worst, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReduceDoesNotMaterialize is the acceptance gate for the
// streaming observation surface: folding mean/variance over a
// 10⁵-node heap-mode system must not allocate an N-length slice — the
// whole fold stays within a handful of fixed-size allocations.
func TestReduceDoesNotMaterialize(t *testing.T) {
	const n = 100_000
	sys, err := Open(
		WithSize(n),
		WithValues(func(i int) float64 { return float64(i % 64) }),
		// One-hour cycles: the workers stay parked, so the measurement
		// sees Reduce itself, not concurrent exchanges.
		WithCycleLength(time.Hour),
		WithSeed(9),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	ctx := context.Background()
	var run Running
	allocs := testing.AllocsPerRun(10, func() {
		run = Running{}
		if err := sys.Reduce(ctx, "avg", &run); err != nil {
			t.Fatal(err)
		}
	})
	if run.N() != n {
		t.Fatalf("folded %d nodes, want %d", run.N(), n)
	}
	var want float64
	for i := 0; i < n; i++ {
		want += float64(i % 64)
	}
	want /= n
	if math.Abs(run.Mean()-want) > 1e-9 {
		t.Fatalf("mean = %g, want %g", run.Mean(), want)
	}
	// An N-length float64 slice would be 800 kB ≈ one allocation of
	// 100k words; the fold must stay O(1). Allow a few words of slack
	// for the interface call.
	if allocs > 4 {
		t.Fatalf("Reduce allocated %.0f objects per run, want ≤ 4", allocs)
	}
}

// BenchmarkSystemReduce measures the streaming fold at N = 10⁵
// (b.ReportAllocs documents the zero-materialization claim).
func BenchmarkSystemReduce(b *testing.B) {
	sys, err := Open(
		WithSize(100_000),
		WithValues(func(i int) float64 { return float64(i) }),
		WithCycleLength(time.Hour),
		WithSeed(10),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var run Running
		if err := sys.Reduce(ctx, "avg", &run); err != nil {
			b.Fatal(err)
		}
	}
}
