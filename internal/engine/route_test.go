package engine

import (
	"context"
	"encoding/binary"
	"math"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/xrand"
)

// scrapeSum sums every sample of one series family (all label sets) in
// the registry's exposition.
func scrapeSum(tb testing.TB, reg *metrics.Registry, family string) float64 {
	tb.Helper()
	var sum float64
	found := false
	for _, line := range strings.Split(string(reg.AppendPrometheus(nil)), "\n") {
		if !strings.HasPrefix(line, family) || len(line) == len(family) {
			continue
		}
		if c := line[len(family)]; c != '{' && c != ' ' {
			continue // a longer family sharing the prefix
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			tb.Fatalf("unparseable sample %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		tb.Fatalf("series %s not exposed", family)
	}
	return sum
}

// newFabricRuntime builds a two-worker runtime of n nodes over fabric
// (nil: the runtime-owned lossless fabric) with 0/1 values, a metrics
// registry and the implicit complete overlay; mut adjusts the config.
func newFabricRuntime(tb testing.TB, n int, fabric *transport.Fabric, mut func(*RuntimeConfig)) (*Runtime, *metrics.Registry) {
	tb.Helper()
	reg := metrics.New()
	cfg := RuntimeConfig{
		Size:         n,
		Schema:       core.AverageSchema(),
		Value:        func(i int) float64 { return float64(i % 2) },
		CycleLength:  2 * time.Millisecond,
		ReplyTimeout: 100 * time.Millisecond,
		Fabric:       fabric,
		Workers:      2,
		Seed:         17,
		Metrics:      reg,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := NewRuntime(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Stop)
	return rt, reg
}

// awaitReplies polls until the runtime has completed at least want
// exchanges.
func awaitReplies(tb testing.TB, rt *Runtime, want uint64) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rt.Stats().Replies < want {
		if time.Now().After(deadline) {
			tb.Fatalf("only %d exchanges completed (want ≥ %d): %+v", rt.Stats().Replies, want, rt.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitMean polls until the mean of every node's estimate is want to
// within tol. A cross-shard exchange caught between its halves is a
// transient the next poll no longer shows; a leak persists and fails.
func awaitMean(t *testing.T, rt *Runtime, want, tol float64) {
	t.Helper()
	var mean float64
	for audit := time.Now().Add(5 * time.Second); time.Now().Before(audit); time.Sleep(2 * time.Millisecond) {
		var run stats.Running
		if err := rt.ReduceField("avg", run.Add); err != nil {
			t.Fatal(err)
		}
		if mean = run.Mean(); math.Abs(mean-want) <= tol {
			return
		}
	}
	t.Fatalf("mean of estimates %.17g, want %g: mass leaked", mean, want)
}

// TestRouteCompletePeerMatchesDirectory: with no sampler configured a
// node draws its partner as an index, and that draw must be the one
// membership.Directory makes — the same stream, the same partner
// sequence — so dropping the per-node directories changes no run.
func TestRouteCompletePeerMatchesDirectory(t *testing.T) {
	for _, tc := range []struct {
		seed    uint64
		n, self int
	}{{1, 2, 0}, {1, 2, 1}, {7, 10, 0}, {7, 10, 9}, {42, 1000, 500}, {3, 100_000, 31_337}} {
		addrs := make([]string, tc.n)
		for i := range addrs {
			addrs[i] = transport.SubAddr("mem-0", i)
		}
		dir, err := membership.NewDirectory(addrs, tc.self)
		if err != nil {
			t.Fatal(err)
		}
		a, b := xrand.New(tc.seed), xrand.New(tc.seed)
		for k := 0; k < 2000; k++ {
			want, _ := dir.Sample(a)
			got := completePeer(b, tc.n, tc.self)
			if addrs[got] != want {
				t.Fatalf("seed %d n %d self %d draw %d: index draw %s, directory %s", tc.seed, tc.n, tc.self, k, addrs[got], want)
			}
		}
	}
}

// TestRouteLosslessFabricStaysInProcess: on a lossless fabric every
// message between hosted nodes stays in the process — same-shard ones
// in-round, sibling-shard ones through the mailboxes — so both shards
// deliver in-process, the batcher flushes no frame, and mass is
// conserved.
func TestRouteLosslessFabricStaysInProcess(t *testing.T) {
	rt, reg := newFabricRuntime(t, 256, nil, nil)
	rt.Start(context.Background())
	awaitReplies(t, rt, 2000)
	for _, s := range rt.shards {
		if s.pub.localDelivered.Load() == 0 {
			t.Errorf("shard %d delivered nothing in-process", s.id)
		}
	}
	if v := scrapeSum(t, reg, "repro_engine_local_delivered_total"); v == 0 {
		t.Error("repro_engine_local_delivered_total = 0 on a lossless fabric")
	}
	if v := scrapeSum(t, reg, "repro_transport_batch_frames_total"); v != 0 {
		t.Errorf("repro_transport_batch_frames_total = %g, want 0: hosted traffic crossed the fabric", v)
	}
	awaitMean(t, rt, 0.5, 1e-9)
}

// TestRouteImpairedFabricTakesWire: a fabric with loss, latency or a
// partition filter in force carries every message, so its models apply
// to all of them — no in-process delivery at all, and frames flow.
func TestRouteImpairedFabricTakesWire(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fabric func() *transport.Fabric
	}{
		{"drop", func() *transport.Fabric {
			return transport.NewFabric(transport.WithSeed(1), transport.WithDropProbability(0.2))
		}},
		{"latency", func() *transport.Fabric {
			return transport.NewFabric(transport.WithSeed(1), transport.WithLatency(200*time.Microsecond, 0))
		}},
		{"filter", func() *transport.Fabric {
			f := transport.NewFabric(transport.WithSeed(1))
			f.SetFilter(func(from, to string) bool { return true })
			return f
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, reg := newFabricRuntime(t, 256, tc.fabric(), nil)
			rt.Start(context.Background())
			awaitReplies(t, rt, 500)
			if v := scrapeSum(t, reg, "repro_engine_local_delivered_total"); v != 0 {
				t.Errorf("repro_engine_local_delivered_total = %g on an impaired fabric, want 0", v)
			}
			if v := scrapeSum(t, reg, "repro_transport_batch_frames_total"); v == 0 {
				t.Error("repro_transport_batch_frames_total = 0: nothing crossed the impaired fabric")
			}
		})
	}
}

// TestRouteSetDropProbabilityMidRun: switching a loss model on mid-run
// moves hosted traffic back onto the fabric at once, and switching it
// off moves it back in-process. The loss probability is positive but
// far too small to drop anything in this run, so mass must be
// conserved across both switches.
func TestRouteSetDropProbabilityMidRun(t *testing.T) {
	fabric := transport.NewFabric(transport.WithSeed(1))
	rt, _ := newFabricRuntime(t, 256, fabric, nil)
	frames := func() uint64 {
		var t uint64
		for _, s := range rt.shards {
			t += s.out.FramesSent()
		}
		return t
	}
	await := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: local=%d frames=%d stats %+v", what, localDelivered(rt), frames(), rt.Stats())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	rt.Start(context.Background())
	await("lossless fabric never delivered in-process", func() bool { return localDelivered(rt) > 1000 })
	if frames() != 0 {
		t.Fatalf("%d frames on a lossless fabric", frames())
	}

	fabric.SetDropProbability(1e-12)
	f0 := frames()
	await("a loss model in force sent no frame", func() bool { return frames() > f0+100 })
	// Letters posted before the switch may still land; after that the
	// in-process count must stand still while frames keep flowing.
	time.Sleep(20 * time.Millisecond)
	l0, f1 := localDelivered(rt), frames()
	await("frames stopped on the impaired fabric", func() bool { return frames() > f1+100 })
	if l := localDelivered(rt); l != l0 {
		t.Errorf("%d in-process deliveries while a loss model was in force", l-l0)
	}

	fabric.SetDropProbability(0)
	await("healed fabric never went back in-process", func() bool { return localDelivered(rt) > l0+1000 })
	if d := fabric.LossDropped(); d != 0 {
		t.Fatalf("the loss model dropped %d messages; the mass audit below needs none", d)
	}
	awaitMean(t, rt, 0.5, 1e-9)
}

// TestMailboxCapDropsWhenReceiverStalls: a shard that stops draining its
// mailbox (its round lock is held here, as a descheduled or wedged
// worker would) makes the mailbox stop at the receiving endpoint's
// inbox capacity; the overflow is dropped and counted in the fabric's
// inbox-drop series, the depth gauge reports the queued letters, and
// once the shard runs again it drains the mailbox and keeps exchanging.
func TestMailboxCapDropsWhenReceiverStalls(t *testing.T) {
	const capacity = 64
	fabric := transport.NewFabric(transport.WithSeed(1), transport.WithInboxSize(capacity))
	rt, reg := newFabricRuntime(t, 1024, fabric, nil)
	stalled := rt.shards[1]
	rt.Start(context.Background())
	awaitReplies(t, rt, 100)

	stalled.mu.Lock()
	// The small cap may already have overflowed in normal running, so
	// count only what is dropped while the shard is stalled.
	dropped0 := scrapeSum(t, reg, "repro_transport_fabric_inbox_dropped_total")
	deadline := time.Now().Add(10 * time.Second)
	for stalled.mail.depth.Load() < capacity || scrapeSum(t, reg, "repro_transport_fabric_inbox_dropped_total") == dropped0 {
		if time.Now().After(deadline) {
			stalled.mu.Unlock()
			t.Fatalf("mailbox never overflowed: depth %d, dropped %d", stalled.mail.depth.Load(), stalled.mail.dropped.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	stalled.mail.mu.Lock()
	queued := len(stalled.mail.msgs)
	stalled.mail.mu.Unlock()
	depth := scrapeSum(t, reg, `repro_engine_inbox_depth{shard="1"}`)
	stalled.mu.Unlock()

	if queued != capacity {
		t.Errorf("stalled mailbox holds %d letters, want the cap %d", queued, capacity)
	}
	if depth != capacity {
		t.Errorf("repro_engine_inbox_depth{shard=\"1\"} = %g, want %d", depth, capacity)
	}
	before := rt.NodeStats(stalled.lo).Served + rt.NodeStats(stalled.lo+1).Served
	deadline = time.Now().Add(10 * time.Second)
	for stalled.mail.depth.Load() >= capacity || rt.NodeStats(stalled.lo).Served+rt.NodeStats(stalled.lo+1).Served == before {
		if time.Now().After(deadline) {
			t.Fatalf("released shard never drained its mailbox: depth %d", stalled.mail.depth.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRouteWirePushWithoutSender: a push that arrives from the socket
// with no sender address names no node, hosted or remote, so its answer
// has nowhere to go. The node must charge a failed send, as for any
// unreachable peer, not index the address table with -1.
func TestRouteWirePushWithoutSender(t *testing.T) {
	rt, ep := newTCPRuntime(t, 4, nil, nil)
	rt.Start(context.Background())
	conn, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	push := transport.Message{Kind: transport.KindPush, Seq: 1, To: rt.Addr(1), Fields: []float64{0.5}}
	frame, err := push.AppendBinary(make([]byte, 4))
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for rt.NodeStats(1).SendErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the answer to a push without a sender was never charged as a failed send: %+v", rt.NodeStats(1))
		}
		time.Sleep(2 * time.Millisecond)
	}
}
