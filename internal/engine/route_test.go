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

// fabricEndpoints attaches n endpoints to f: the Endpoints of a runtime
// whose every message crosses the fabric, so its latency, loss and
// partition models apply.
func fabricEndpoints(f *transport.Fabric, n int) []transport.Endpoint {
	eps := make([]transport.Endpoint, n)
	for i := range eps {
		eps[i] = f.NewEndpoint()
	}
	return eps
}

// newRouteRuntime builds a two-worker runtime of n nodes — in memory, or
// over two endpoints of fabric when it is non-nil — with 0/1 values, a
// metrics registry and the implicit complete overlay; mut adjusts the
// config.
func newRouteRuntime(tb testing.TB, n int, fabric *transport.Fabric, mut func(*RuntimeConfig)) (*Runtime, *metrics.Registry) {
	tb.Helper()
	reg := metrics.New()
	cfg := RuntimeConfig{
		Size:         n,
		Schema:       core.AverageSchema(),
		Value:        func(i int) float64 { return float64(i % 2) },
		CycleLength:  2 * time.Millisecond,
		ReplyTimeout: 100 * time.Millisecond,
		Workers:      2,
		Seed:         17,
		Metrics:      reg,
	}
	if fabric != nil {
		cfg.Endpoints = fabricEndpoints(fabric, 2)
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

// TestRouteLosslessFabricStaysInProcess: an in-memory runtime has no
// endpoint and no batcher — it registers no batcher series — and every
// message between its nodes stays in the process: same-shard ones fused
// or in-round, sibling-shard ones fused or through the mailboxes. Both
// shards deliver in-process, and mass is conserved.
func TestRouteLosslessFabricStaysInProcess(t *testing.T) {
	rt, reg := newRouteRuntime(t, 256, nil, nil)
	rt.Start(context.Background())
	awaitReplies(t, rt, 2000)
	for _, s := range rt.shards {
		if s.pub.localDelivered.Load() == 0 {
			t.Errorf("shard %d delivered nothing in-process", s.id)
		}
		if s.inbox != nil || s.out != nil {
			t.Errorf("shard %d of an in-memory runtime has an endpoint or a batcher", s.id)
		}
	}
	if v := scrapeSum(t, reg, "repro_engine_local_delivered_total"); v == 0 {
		t.Error("repro_engine_local_delivered_total = 0 in memory")
	}
	for _, family := range []string{
		"repro_transport_batch_frames_total",
		"repro_transport_batch_messages_total",
		"repro_transport_send_failures_total",
	} {
		if strings.Contains(string(reg.AppendPrometheus(nil)), family) {
			t.Errorf("%s exposed by an in-memory runtime, which has no batcher", family)
		}
	}
	awaitMean(t, rt, 0.5, 1e-9)
}

// TestRouteImpairedFabricTakesWire: a runtime built over explicit
// fabric endpoints — with loss, latency or a partition filter in force
// — sends every message across the fabric, so its models apply to all
// of them: no in-process delivery at all, and frames flow.
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
			rt, reg := newRouteRuntime(t, 256, tc.fabric(), nil)
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

// fusedExchanges counts the exchanges the runtime's shards fused: each
// initiation that drew no Fields buffer (only a lettered push draws one
// on a run without adversaries). Read under each shard's round lock, so
// the two counters agree.
func fusedExchanges(rt *Runtime) uint64 {
	var t uint64
	for _, s := range rt.shards {
		s.mu.Lock()
		t += s.ctr.initiated.Load() - s.free.gets - s.free.misses
		s.mu.Unlock()
	}
	return t
}

// lossDropped sums the shards' loss-stage drop counters.
func lossDropped(rt *Runtime) uint64 {
	var t uint64
	for _, s := range rt.shards {
		t += s.ctr.lossDropped.Load()
	}
	return t
}

// TestRouteSetLossMidRun: switching the loss stage on mid-run stops
// every fused exchange at once — both messages of each exchange must
// pass the stage, so they go by letter — and switching it off lets
// them fuse again. The loss probability is positive but far too small
// to drop anything in this run, so mass must be conserved across both
// switches.
func TestRouteSetLossMidRun(t *testing.T) {
	rt, _ := newRouteRuntime(t, 256, nil, nil)
	await := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: local=%d fused=%d stats %+v", what, localDelivered(rt), fusedExchanges(rt), rt.Stats())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	rt.Start(context.Background())
	await("lossless run never fused", func() bool { return fusedExchanges(rt) > 1000 })

	if err := rt.SetLoss(1e-12); err != nil {
		t.Fatal(err)
	}
	// SetLoss has set every shard under its round lock: no exchange can
	// fuse from here on, while letters keep flowing.
	f0, l0 := fusedExchanges(rt), localDelivered(rt)
	await("letters stopped while the loss stage was on", func() bool { return localDelivered(rt) > l0+1000 })
	if f := fusedExchanges(rt); f != f0 {
		t.Errorf("%d exchanges fused while the loss stage was on", f-f0)
	}

	if err := rt.SetLoss(0); err != nil {
		t.Fatal(err)
	}
	await("exchanges never fused again after SetLoss(0)", func() bool { return fusedExchanges(rt) > f0+1000 })
	if d := lossDropped(rt); d != 0 {
		t.Fatalf("the loss stage dropped %d messages; the mass audit below needs none", d)
	}
	awaitMean(t, rt, 0.5, 1e-9)
}

// TestLossStageDropsLetters: at p = 0.2 the loss stage drops each
// in-process message independently with probability p — the dropped
// share of the letters that reached it lies within 5σ (binomial) of p —
// counts every drop in the in-memory loss series, turns dropped pushes
// and replies into reply timeouts, and lets no exchange fuse, so both
// messages of every exchange meet it.
func TestLossStageDropsLetters(t *testing.T) {
	const p = 0.2
	rt, reg := newRouteRuntime(t, 256, nil, nil)
	if err := rt.SetLoss(p); err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background())
	deadline := time.Now().Add(10 * time.Second)
	for lossDropped(rt) < 2000 || rt.Stats().Timeouts == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dropped %d, stats %+v", lossDropped(rt), rt.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	rt.Stop()

	// At rest every letter that passed the stage was delivered, waits in
	// a mailbox, or overflowed one.
	var passed uint64
	for _, s := range rt.shards {
		s.mu.Lock()
		passed += s.localDelivered + uint64(s.mail.depth.Load()) + s.mail.dropped.Load()
		s.mu.Unlock()
	}
	dropped := lossDropped(rt)
	n := float64(passed + dropped)
	share, sigma := float64(dropped)/n, math.Sqrt(p*(1-p)/n)
	t.Logf("dropped %d of %d letters (%.4f, σ %.4f)", dropped, passed+dropped, share, sigma)
	if math.Abs(share-p) > 5*sigma {
		t.Errorf("dropped share %.4f of %d letters, want %g ± 5σ (σ = %.4f)", share, passed+dropped, p, sigma)
	}
	if v := scrapeSum(t, reg, "repro_transport_fabric_loss_dropped_total"); v != float64(dropped) {
		t.Errorf("repro_transport_fabric_loss_dropped_total = %g, want the stage's %d drops", v, dropped)
	}
	if f := fusedExchanges(rt); f != 0 {
		t.Errorf("%d exchanges fused with the loss stage on", f)
	}
}

// TestLossStageNeedsInMemoryRuntime: only an in-memory runtime has the
// loss stage; behind explicit endpoints SetLoss is an error, and so is a
// probability outside [0, 1] anywhere.
func TestLossStageNeedsInMemoryRuntime(t *testing.T) {
	wired, _ := newRouteRuntime(t, 16, transport.NewFabric(), nil)
	if err := wired.SetLoss(0.1); err == nil {
		t.Error("SetLoss accepted on a runtime built over explicit endpoints")
	}
	mem, _ := newRouteRuntime(t, 16, nil, nil)
	for _, p := range []float64{-0.1, 1.5, math.NaN()} {
		if err := mem.SetLoss(p); err == nil {
			t.Errorf("SetLoss(%g) accepted", p)
		}
	}
	for _, p := range []float64{0, 0.5, 1} {
		if err := mem.SetLoss(p); err != nil {
			t.Errorf("SetLoss(%g): %v", p, err)
		}
	}
}

// TestMailboxCapDropsWhenReceiverStalls: a shard that stops draining its
// mailbox (its round lock is held here, as a descheduled or wedged
// worker would) makes the mailbox stop at its cap; the overflow is
// dropped and counted in the in-memory inbox-drop series, the depth
// gauge reports the queued letters, and once the shard runs again it
// drains the mailbox and keeps exchanging.
func TestMailboxCapDropsWhenReceiverStalls(t *testing.T) {
	const capacity = 64
	rt, reg := newRouteRuntime(t, 1024, nil, nil)
	stalled := rt.shards[1]
	stalled.mail.limit = capacity // before Start: no sender posts yet
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

// TestRouteUnhostedPeerInMemoryFails: an in-memory runtime has no wire,
// so a sampled address that names none of its nodes is unreachable: the
// send is charged as failed, at once, and the sampler forgets the peer.
func TestRouteUnhostedPeerInMemoryFails(t *testing.T) {
	const ghost = "mem-7#70"
	samplers := make([]*membership.GossipSampler, 4)
	rt, _ := newRouteRuntime(t, 4, nil, func(c *RuntimeConfig) {
		c.Samplers = func(i int, self string, local []string) (membership.Sampler, error) {
			g, err := membership.NewGossipSampler(self, 4, []string{ghost})
			samplers[i] = g
			return g, err
		}
	})
	rt.Start(context.Background())
	deadline := time.Now().Add(10 * time.Second)
	for rt.Stats().SendErrors < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("sends to an unhosted peer were not charged as failed: %+v", rt.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	rt.Stop()
	for i, g := range samplers {
		for _, a := range g.ViewAddrs() {
			if a == ghost {
				t.Errorf("node %d still holds the unreachable %s in its view", i, ghost)
			}
		}
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
	frame, err := transport.AppendBatch(make([]byte, 4), []transport.Message{push})
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
