package engine

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/membership"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/xrand"
)

// singleNodeConfig is a one-node runtime on ep whose only peer is the
// sampler's: the deployable single-node shape.
func singleNodeConfig(ep transport.Endpoint, sampler membership.Sampler) RuntimeConfig {
	return RuntimeConfig{
		Size:        1,
		Schema:      core.AverageSchema(),
		Endpoints:   []transport.Endpoint{ep},
		Samplers:    func(int, string, []string) (membership.Sampler, error) { return sampler, nil },
		CycleLength: time.Millisecond,
	}
}

// TestConfigValidation: a single-node runtime needs what a lone node
// needs — a schema, an endpoint, a sampler, a positive cycle and a known
// wait policy — and is accepted with them.
func TestConfigValidation(t *testing.T) {
	fabric := transport.NewFabric()
	sampler, err := membership.NewStatic([]string{"mem-1"})
	if err != nil {
		t.Fatal(err)
	}
	base := singleNodeConfig(fabric.NewEndpoint(), sampler)
	rt, err := NewRuntime(base)
	if err != nil {
		t.Fatalf("valid single-node config rejected: %v", err)
	}
	rt.Stop()
	mutations := []struct {
		name   string
		mutate func(c RuntimeConfig) RuntimeConfig
	}{
		{"nil schema", func(c RuntimeConfig) RuntimeConfig { c.Schema = nil; return c }},
		{"nil endpoint", func(c RuntimeConfig) RuntimeConfig { c.Endpoints = nil; return c }},
		{"nil sampler", func(c RuntimeConfig) RuntimeConfig { c.Samplers = nil; return c }},
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
}

func TestNodeStartStopClean(t *testing.T) {
	fabric := transport.NewFabric()
	sampler, _ := membership.NewStatic([]string{"nonexistent"})
	cfg := singleNodeConfig(fabric.NewEndpoint(), sampler)
	cfg.Value = func(int) float64 { return 1 }
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background())
	rt.Start(context.Background()) // second Start is a no-op
	time.Sleep(10 * time.Millisecond)
	rt.Stop()
	rt.Stop() // idempotent
}

func TestNodeStopBeforeStart(t *testing.T) {
	fabric := transport.NewFabric()
	sampler, _ := membership.NewStatic([]string{"x"})
	rt, err := NewRuntime(singleNodeConfig(fabric.NewEndpoint(), sampler))
	if err != nil {
		t.Fatal(err)
	}
	rt.Stop() // must not hang or panic
}

func TestClusterMassApproximatelyConserved(t *testing.T) {
	// Concurrent push-pull is not perfectly atomic, but the drift in the
	// total must stay small relative to the spread of the inputs.
	const size = 16
	c, err := NewCluster(ClusterConfig{
		Size:         size,
		Schema:       core.AverageSchema(),
		Value:        func(i int) float64 { return float64(i * 10) },
		CycleLength:  time.Millisecond,
		ReplyTimeout: 200 * time.Millisecond,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()
	if _, ok, _ := c.WaitConverged("avg", 1e-4, 5*time.Second); !ok {
		t.Fatal("did not converge")
	}
	vals, _ := c.Snapshot("avg")
	want := float64(size-1) * 10 / 2
	if got := stats.Mean(vals); math.Abs(got-want) > 2 {
		t.Fatalf("mean drifted to %g, want ≈ %g", got, want)
	}
}

func TestClusterExponentialWaitConverges(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Size:        12,
		Schema:      core.AverageSchema(),
		Value:       func(i int) float64 { return float64(i) },
		CycleLength: 2 * time.Millisecond,
		Wait:        ExponentialWait,
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()
	if v, ok, _ := c.WaitConverged("avg", 1e-5, 5*time.Second); !ok {
		t.Fatalf("exponential-wait cluster stuck at variance %g", v)
	}
}

func TestNodeStatsCounters(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Size:        4,
		Schema:      core.AverageSchema(),
		Value:       func(i int) float64 { return float64(i) },
		CycleLength: time.Millisecond,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	time.Sleep(100 * time.Millisecond)
	c.Stop()
	var agg Stats
	for _, n := range c.Nodes() {
		s := n.Stats()
		agg.Initiated += s.Initiated
		agg.Replies += s.Replies
		agg.Served += s.Served
	}
	if agg.Initiated < 10 {
		t.Fatalf("only %d exchanges initiated in 100ms at Δt=1ms", agg.Initiated)
	}
	if agg.Served == 0 || agg.Replies == 0 {
		t.Fatalf("served=%d replies=%d; passive path unexercised", agg.Served, agg.Replies)
	}
	if agg.Replies > agg.Initiated {
		t.Fatalf("replies %d exceed initiations %d", agg.Replies, agg.Initiated)
	}
}

func TestEpochIDsMonotone(t *testing.T) {
	clock, err := epoch.NewClock(time.Now(), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := clusterWithClock(t, 6, clock)
	c.Start(context.Background())
	defer c.Stop()
	last := make([]uint64, 6)
	for probe := 0; probe < 20; probe++ {
		for i, n := range c.Nodes() {
			cur := n.Epoch()
			if cur < last[i] {
				t.Fatalf("node %d epoch went backwards: %d → %d", i, last[i], cur)
			}
			last[i] = cur
		}
		time.Sleep(10 * time.Millisecond)
	}
	// After 200ms with 50ms epochs, every node must have advanced.
	for i, n := range c.Nodes() {
		if n.Epoch() == 0 {
			t.Fatalf("node %d never left epoch 0", i)
		}
	}
}

// clusterWithClock builds a small cluster whose nodes share an epoch
// clock.
func clusterWithClock(t *testing.T, size int, clock *epoch.Clock) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Size:        size,
		Schema:      core.AverageSchema(),
		Value:       func(i int) float64 { return float64(i) },
		CycleLength: 2 * time.Millisecond,
		Clock:       clock,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newTCPTestEndpoint binds a loopback TCP endpoint, retrying with a
// short backoff when the kernel reports the port space busy — loaded CI
// machines churn through ephemeral ports fast enough that a single bind
// attempt flakes.
func newTCPTestEndpoint(t *testing.T) transport.Endpoint {
	t.Helper()
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		ep, err := transport.NewTCPEndpoint("127.0.0.1:0")
		if err == nil {
			return ep
		}
		lastErr = err
		time.Sleep(time.Duration(attempt+1) * 50 * time.Millisecond)
	}
	t.Fatalf("bind loopback TCP endpoint: %v", lastErr)
	return nil
}

// awaitTCPReady proves both accept loops are live before any gossip
// traffic flows: each endpoint sends the other a nack probe (ignored by
// the protocol's reply matching) and the probe must come out of the
// peer's inbox. Once both directions have delivered, node startup
// cannot race the listeners — even on single-core machines where the
// accept goroutines are scheduled late.
func awaitTCPReady(t *testing.T, epA, epB transport.Endpoint) {
	t.Helper()
	probe := func(from, to transport.Endpoint) {
		deadline := time.Now().Add(10 * time.Second)
		msg := transport.Message{Kind: transport.KindNack, Seq: ^uint64(0)}
		for {
			err := from.SendBatch(to.Addr(), []transport.Message{msg})
			if err == nil {
				select {
				case m := <-to.Inbox():
					if m.Kind == transport.KindNack && m.Seq == ^uint64(0) {
						return
					}
				case <-time.After(200 * time.Millisecond):
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("TCP readiness probe %s -> %s undelivered: %v", from.Addr(), to.Addr(), err)
			}
		}
	}
	probe(epA, epB)
	probe(epB, epA)
}

func TestTCPNodesExchange(t *testing.T) {
	// Two live nodes over real TCP loopback must converge on the average
	// of their values. Real sockets are slower than the fabric, so the
	// test still honors -short, but it no longer skips on single-core
	// machines: the readiness handshake below waits for both accept
	// loops before the first push, which was the starvation the old
	// GOMAXPROCS gate papered over.
	if testing.Short() {
		t.Skip("real TCP sockets; skipped in -short mode")
	}
	epA := newTCPTestEndpoint(t)
	epB := newTCPTestEndpoint(t)
	awaitTCPReady(t, epA, epB)
	samplerA, err := membership.NewStatic([]string{epB.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	samplerB, err := membership.NewStatic([]string{epA.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	open := func(ep transport.Endpoint, sampler membership.Sampler, value float64, seed uint64) *Node {
		cfg := singleNodeConfig(ep, sampler)
		cfg.Value = func(int) float64 { return value }
		cfg.CycleLength, cfg.ReplyTimeout, cfg.Seed = 5*time.Millisecond, 500*time.Millisecond, seed
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt.Start(context.Background())
		t.Cleanup(rt.Stop)
		return rt.Nodes()[0]
	}
	a := open(epA, samplerA, 10, 1)
	b := open(epB, samplerB, 20, 2)

	// Generous deadline: loaded CI machines schedule the two nodes'
	// loops erratically even with multiple cores.
	deadline := time.Now().Add(15 * time.Second)
	for {
		ea, err := a.Estimate("avg")
		if err != nil {
			t.Fatal(err)
		}
		eb, err := b.Estimate("avg")
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ea-15) < 1e-9 && math.Abs(eb-15) < 1e-9 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("TCP pair stuck at %g / %g, want 15", ea, eb)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGossipSamplerIntegration(t *testing.T) {
	// Nodes bootstrapped with only one seed peer must still reach
	// everyone through piggybacked membership gossip.
	const size = 10
	c, err := NewCluster(ClusterConfig{
		Size:         size,
		Schema:       core.AverageSchema(),
		Value:        func(i int) float64 { return float64(i) },
		CycleLength:  2 * time.Millisecond,
		ReplyTimeout: 200 * time.Millisecond,
		Seed:         50,
		Samplers: func(i int, self string, local []string) (membership.Sampler, error) {
			return membership.NewGossipSampler(self, 8, []string{local[(i+1)%size]}) // ring bootstrap
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()
	nodes := c.Nodes()
	want := float64(size-1) / 2
	deadline := time.Now().Add(8 * time.Second)
	for {
		worst := 0.0
		for _, n := range nodes {
			est, err := n.Estimate("avg")
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(est - want); d > worst {
				worst = d
			}
		}
		// Exchanges conserve mass even when a reply outlives the
		// initiator's timeout: the reply carries a transfer that the
		// initiator adds to whatever its state is when it lands,
		// so the converged average does not drift by 0.5/size per glitch
		// as it did before late replies were applied. 0.05 is well
		// inside "every node was reached" (an unreached node sits ≥ 0.5
		// off) and tight enough to catch any conservation regression.
		if worst < 0.05 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip-sampler cluster stuck, worst error %g", worst)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Size: 1, Schema: core.AverageSchema(), CycleLength: time.Millisecond}); err == nil {
		t.Error("1-node cluster accepted")
	}
	if _, err := NewCluster(ClusterConfig{Size: 4, CycleLength: time.Millisecond}); err == nil {
		t.Error("nil schema accepted")
	}
}

func TestEstimateUnknownField(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Size:        2,
		Schema:      core.AverageSchema(),
		CycleLength: time.Millisecond,
		Seed:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, err := c.Nodes()[0].Estimate("bogus"); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := c.Snapshot("bogus"); err == nil {
		t.Fatal("unknown field accepted by Snapshot")
	}
}

func TestWaitPolicyString(t *testing.T) {
	if ConstantWait.String() != "constant" || ExponentialWait.String() != "exponential" {
		t.Error("wait policy names wrong")
	}
	if WaitPolicy(42).String() == "" {
		t.Error("unknown policy produced empty string")
	}
}

func TestSendErrorForgetsDeadPeer(t *testing.T) {
	fabric := transport.NewFabric()
	ep := fabric.NewEndpoint()
	dead := fabric.NewEndpoint()
	deadAddr := dead.Addr()
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}
	sampler, err := membership.NewGossipSampler(ep.Addr(), 4, []string{deadAddr})
	if err != nil {
		t.Fatal(err)
	}
	cfg := singleNodeConfig(ep, sampler)
	cfg.Seed = 9
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := rt.Nodes()[0]
	rt.Start(context.Background())
	time.Sleep(50 * time.Millisecond)
	rt.Stop()
	if n.Stats().SendErrors == 0 {
		t.Fatal("no send errors recorded against a dead-only peer set")
	}
	// The dead peer must have been forgotten from the view.
	for _, a := range sampler.ViewAddrs() {
		if a == deadAddr {
			t.Fatal("dead peer still in view after send errors")
		}
	}
}

func TestClusterSnapshotUnknownSchemaError(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Size:        2,
		Schema:      core.AverageSchema(),
		CycleLength: time.Millisecond,
		Seed:        10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, _, err := c.WaitConverged("bogus", 1, time.Millisecond); err == nil {
		t.Fatal("WaitConverged accepted unknown field")
	}
	var wantErr error
	_, wantErr = c.Variance("bogus")
	if wantErr == nil {
		t.Fatal("Variance accepted unknown field")
	}
	if errors.Is(wantErr, transport.ErrClosed) {
		t.Fatal("wrong error kind")
	}
}

// silentSampler never yields a peer: a node using it serves pushes but
// initiates nothing, giving late-reply tests a single deterministic
// initiator.
type silentSampler struct{}

func (silentSampler) Sample(*xrand.Rand) (string, bool)  { return "", false }
func (silentSampler) Observe(string, []string, []uint32) {}
func (silentSampler) AppendDigest(a []string, g []uint32, _ *xrand.Rand, _ int) ([]string, []uint32) {
	return a, g
}
func (silentSampler) Tick()         {}
func (silentSampler) Forget(string) {}

func TestLateReplyAbsorptionHeapRuntime(t *testing.T) {
	// With fabric latency above the reply timeout, every pull reply
	// arrives after the initiator has timed out. The passive side has
	// already committed its half of the merge, so the reaper
	// (handleDeadline) records the seq and handleReply must still apply
	// the transfer when the reply finally lands, putting both nodes
	// exactly on the mean. The one worker's endpoint is on the fabric,
	// so every message crosses it.
	fabric := transport.NewFabric(transport.WithLatency(20*time.Millisecond, 0), transport.WithSeed(12))
	c, err := NewRuntime(RuntimeConfig{
		Size:         2,
		Schema:       core.AverageSchema(),
		Value:        func(i int) float64 { return float64(10 + 10*i) },
		CycleLength:  100 * time.Millisecond,
		ReplyTimeout: 10 * time.Millisecond,
		Endpoints:    fabricEndpoints(fabric, 1),
		Seed:         13,
		Samplers: func(i int, self string, local []string) (membership.Sampler, error) {
			if i == 1 {
				return silentSampler{}, nil
			}
			return membership.NewStatic([]string{local[1]})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for {
		vals, err := c.Snapshot("avg")
		if err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if math.Abs(vals[0]-15) < 1e-9 && math.Abs(vals[1]-15) < 1e-9 && st.LateReplies > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("vals=%v lateReplies=%d timeouts=%d; want 15/15 with ≥1 absorbed late reply",
				vals, st.LateReplies, st.Timeouts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClusterGossipMembershipBothModes(t *testing.T) {
	// Ring-bootstrapped gossip membership must carry a two-shard runtime
	// to the true mean: no static directory anywhere, the view is built
	// entirely from piggybacked digests.
	const size = 16
	want := float64(size-1) / 2
	t.Run("heap", func(t *testing.T) {
		c, err := NewCluster(ClusterConfig{
			Size:         size,
			Schema:       core.AverageSchema(),
			Value:        func(i int) float64 { return float64(i) },
			CycleLength:  2 * time.Millisecond,
			ReplyTimeout: 200 * time.Millisecond,
			Workers:      2,
			Seed:         21,
			Samplers: func(i int, self string, local []string) (membership.Sampler, error) {
				return membership.NewGossipSampler(self, 8, []string{local[(i+1)%len(local)]})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Start(context.Background())
		defer c.Stop()
		if v, ok, err := c.WaitConverged("avg", 1e-4, 8*time.Second); err != nil || !ok {
			t.Fatalf("gossip-membership cluster stuck at variance %g (err %v)", v, err)
		}
		vals, err := c.Snapshot("avg")
		if err != nil {
			t.Fatal(err)
		}
		if got := stats.Mean(vals); math.Abs(got-want) > 0.05 {
			t.Fatalf("converged mean %g, want ≈ %g", got, want)
		}
	})
}
