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

func TestConfigValidation(t *testing.T) {
	fabric := transport.NewFabric()
	ep := fabric.NewEndpoint()
	defer ep.Close()
	sampler, err := membership.NewStatic([]string{"mem-1"})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Schema:      core.AverageSchema(),
		Endpoint:    ep,
		Sampler:     sampler,
		CycleLength: time.Millisecond,
	}
	mutations := []struct {
		name   string
		mutate func(c Config) Config
	}{
		{"nil schema", func(c Config) Config { c.Schema = nil; return c }},
		{"nil endpoint", func(c Config) Config { c.Endpoint = nil; return c }},
		{"nil sampler", func(c Config) Config { c.Sampler = nil; return c }},
		{"zero cycle", func(c Config) Config { c.CycleLength = 0; return c }},
		{"bad wait", func(c Config) Config { c.Wait = WaitPolicy(99); return c }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			if _, err := NewNode(m.mutate(base)); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestNodeStartStopClean(t *testing.T) {
	fabric := transport.NewFabric()
	ep := fabric.NewEndpoint()
	sampler, _ := membership.NewStatic([]string{"nonexistent"})
	n, err := NewNode(Config{
		Schema:      core.AverageSchema(),
		Endpoint:    ep,
		Sampler:     sampler,
		CycleLength: time.Millisecond,
		Value:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	n.Start() // second Start is a no-op
	time.Sleep(10 * time.Millisecond)
	n.Stop()
	n.Stop() // idempotent
}

func TestNodeStopBeforeStart(t *testing.T) {
	fabric := transport.NewFabric()
	ep := fabric.NewEndpoint()
	sampler, _ := membership.NewStatic([]string{"x"})
	n, err := NewNode(Config{
		Schema:      core.AverageSchema(),
		Endpoint:    ep,
		Sampler:     sampler,
		CycleLength: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Stop() // must not hang or panic
}

func TestClusterConvergesToAverage(t *testing.T) {
	const size = 24
	c, err := NewCluster(ClusterConfig{
		Size:         size,
		Schema:       core.AverageSchema(),
		Value:        func(i int) float64 { return float64(i) },
		CycleLength:  2 * time.Millisecond,
		ReplyTimeout: 200 * time.Millisecond, // generous: timeouts skew the mean
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
	want := float64(size-1) / 2 // mean of 0..size-1
	got := stats.Mean(vals)
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("converged mean %g, want ≈ %g", got, want)
	}
}

func TestClusterSummarySchemaConverges(t *testing.T) {
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

func TestClusterPushOnlyStillReducesVariance(t *testing.T) {
	// Push-only is the ablation: it converges toward consensus, just
	// without the initiator-side update and without exact mass
	// conservation.
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

func TestClusterUnderMessageLoss(t *testing.T) {
	fabric := transport.NewFabric(transport.WithDropProbability(0.2), transport.WithSeed(6))
	c, err := NewCluster(ClusterConfig{
		Size:        12,
		Schema:      core.AverageSchema(),
		Value:       func(i int) float64 { return float64(i) },
		CycleLength: 2 * time.Millisecond,
		Fabric:      fabric,
		Seed:        6,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()
	if v, ok, _ := c.WaitConverged("avg", 1e-4, 8*time.Second); !ok {
		t.Fatalf("lossy cluster stuck at variance %g", v)
	}
	// Timeouts must have been recorded somewhere.
	var timeouts uint64
	for _, n := range c.Nodes() {
		timeouts += n.Stats().Timeouts
	}
	if timeouts == 0 {
		t.Error("20% loss produced zero timeouts; loss path untested")
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

func TestEpochRestartAdaptsToNewValues(t *testing.T) {
	// With an epoch clock, changing local values must be reflected after
	// the next restart — the adaptivity of §4.
	fabric := transport.NewFabric()
	schema := core.AverageSchema()
	clock, err := epoch.NewClock(time.Now(), 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	const size = 8
	endpoints := make([]transport.Endpoint, size)
	addrs := make([]string, size)
	for i := range endpoints {
		endpoints[i] = fabric.NewEndpoint()
		addrs[i] = endpoints[i].Addr()
	}
	nodes := make([]*Node, 0, size)
	for i := 0; i < size; i++ {
		peers := make([]string, 0, size-1)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		sampler, err := membership.NewStatic(peers)
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(Config{
			Schema:      schema,
			Endpoint:    endpoints[i],
			Sampler:     sampler,
			Value:       1, // everyone starts at 1
			CycleLength: 2 * time.Millisecond,
			Clock:       clock,
			Seed:        uint64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()

	// Change every node's local value; after a restart the estimates
	// must move from ≈1 to ≈5.
	for _, n := range nodes {
		n.SetValue(5)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		est, err := nodes[3].Estimate("avg")
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
	var switches uint64
	for _, n := range nodes {
		switches += n.Stats().EpochSwitches
	}
	if switches == 0 {
		t.Fatal("no epoch switches recorded despite adaptation")
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
// clock (ClusterConfig has no clock field; build nodes directly).
func clusterWithClock(t *testing.T, size int, clock *epoch.Clock) *Cluster {
	t.Helper()
	fabric := transport.NewFabric()
	schema := core.AverageSchema()
	endpoints := make([]transport.Endpoint, size)
	addrs := make([]string, size)
	for i := range endpoints {
		endpoints[i] = fabric.NewEndpoint()
		addrs[i] = endpoints[i].Addr()
	}
	c := &Cluster{fabric: fabric, schema: schema}
	for i := 0; i < size; i++ {
		peers := make([]string, 0, size-1)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		sampler, err := membership.NewStatic(peers)
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(Config{
			Schema:      schema,
			Endpoint:    endpoints[i],
			Sampler:     sampler,
			Value:       float64(i),
			CycleLength: 2 * time.Millisecond,
			Clock:       clock,
			Seed:        uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, n)
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
			err := from.Send(to.Addr(), msg)
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
	schema := core.AverageSchema()
	a, err := NewNode(Config{
		Schema: schema, Endpoint: epA, Sampler: samplerA,
		Value: 10, CycleLength: 5 * time.Millisecond, ReplyTimeout: 500 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(Config{
		Schema: schema, Endpoint: epB, Sampler: samplerB,
		Value: 20, CycleLength: 5 * time.Millisecond, ReplyTimeout: 500 * time.Millisecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()

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
	fabric := transport.NewFabric()
	schema := core.AverageSchema()
	const size = 10
	endpoints := make([]transport.Endpoint, size)
	addrs := make([]string, size)
	for i := range endpoints {
		endpoints[i] = fabric.NewEndpoint()
		addrs[i] = endpoints[i].Addr()
	}
	nodes := make([]*Node, 0, size)
	for i := 0; i < size; i++ {
		seed := addrs[(i+1)%size] // ring bootstrap
		sampler, err := membership.NewGossipSampler(addrs[i], 8, []string{seed})
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(Config{
			Schema:       schema,
			Endpoint:     endpoints[i],
			Sampler:      sampler,
			Value:        float64(i),
			CycleLength:  2 * time.Millisecond,
			ReplyTimeout: 200 * time.Millisecond,
			Seed:         uint64(i + 50),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
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
		// initiator's timeout: the late reply is absorbed as long as no
		// other merge touched the state in between (the stateVer guard
		// in tryAbsorbLate), so the converged average no longer drifts
		// by 0.5/size per glitch as it did before the fix. 0.05 is well
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
	n, err := NewNode(Config{
		Schema:      core.AverageSchema(),
		Endpoint:    ep,
		Sampler:     sampler,
		CycleLength: time.Millisecond,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	time.Sleep(50 * time.Millisecond)
	n.Stop()
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

func TestLateReplyAbsorptionConservesMass(t *testing.T) {
	// Regression for the mass glitch behind the old 0.45 threshold in
	// TestGossipSamplerIntegration: with fabric latency above the reply
	// timeout, every pull reply arrives after the initiator has timed
	// out. The passive side has already committed its half of the merge,
	// so dropping the reply loses (S_A−S_B)/2 permanently. Absorption
	// must merge the late reply (the state hasn't moved since the push
	// snapshot) and land both nodes exactly on the mean.
	fabric := transport.NewFabric(transport.WithLatency(20*time.Millisecond, 0), transport.WithSeed(11))
	schema := core.AverageSchema()
	epA, epB := fabric.NewEndpoint(), fabric.NewEndpoint()
	samplerA, err := membership.NewStatic([]string{epB.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewNode(Config{
		Schema: schema, Endpoint: epA, Sampler: samplerA,
		Value: 10, CycleLength: 100 * time.Millisecond, ReplyTimeout: 10 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(Config{
		Schema: schema, Endpoint: epB, Sampler: silentSampler{},
		Value: 20, CycleLength: 100 * time.Millisecond, ReplyTimeout: 10 * time.Millisecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for {
		ea, _ := a.Estimate("avg")
		eb, _ := b.Estimate("avg")
		st := a.Stats()
		if math.Abs(ea-15) < 1e-9 && math.Abs(eb-15) < 1e-9 && st.LateReplies > 0 {
			if st.Timeouts == 0 {
				t.Fatal("late replies absorbed without any timeout — test setup broken")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a=%g b=%g lateReplies=%d timeouts=%d; want 15/15 with ≥1 absorbed late reply",
				ea, eb, st.LateReplies, st.Timeouts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestLateReplyAbsorptionHeapRuntime(t *testing.T) {
	// Same scenario on the sharded heap-mode runtime: the reaper
	// (handleDeadline) arms absorption and handleReply's mismatch path must
	// complete the merge when the reply finally lands.
	fabric := transport.NewFabric(transport.WithLatency(20*time.Millisecond, 0), transport.WithSeed(12))
	c, err := NewCluster(ClusterConfig{
		Size:         2,
		Schema:       core.AverageSchema(),
		Value:        func(i int) float64 { return float64(10 + 10*i) },
		CycleLength:  100 * time.Millisecond,
		ReplyTimeout: 10 * time.Millisecond,
		Fabric:       fabric,
		Mode:         ModeHeap,
		Workers:      1,
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
		st := c.Runtime().Stats()
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
	// The same ring-bootstrapped gossip membership must carry either
	// runtime to the true mean: no static directory anywhere, the view
	// is built entirely from piggybacked digests.
	const size = 16
	want := float64(size-1) / 2
	for _, mode := range []RuntimeMode{ModeGoroutine, ModeHeap} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			c, err := NewCluster(ClusterConfig{
				Size:         size,
				Schema:       core.AverageSchema(),
				Value:        func(i int) float64 { return float64(i) },
				CycleLength:  2 * time.Millisecond,
				ReplyTimeout: 200 * time.Millisecond,
				Mode:         mode,
				Workers:      2,
				Seed:         21,
				GossipFanout: 3,
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
}
