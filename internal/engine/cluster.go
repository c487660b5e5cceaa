package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/robust"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// ClusterConfig assembles a local in-memory cluster of nodes sharing one
// fabric — the quickest way to run the live protocol at laptop scale
// (examples, integration tests, the quickstart).
type ClusterConfig struct {
	// Size is the number of nodes (≥ 2).
	Size int
	// Schema defines the gossiped fields (required).
	Schema *core.Schema
	// Value supplies node i's local attribute.
	Value func(i int) float64
	// CycleLength is Δt for every node (required).
	CycleLength time.Duration
	// ReplyTimeout bounds the pull-reply wait (default CycleLength/2).
	// Raise it on loaded machines: a timed-out exchange commits only the
	// passive side and perturbs the mean slightly.
	ReplyTimeout time.Duration
	// Wait is the waiting-time policy (default ConstantWait).
	Wait WaitPolicy
	// Fabric carries the messages; nil builds a default lossless,
	// zero-latency fabric.
	Fabric *transport.Fabric
	// PushOnly enables the push-only ablation on every node.
	PushOnly bool
	// InitState, when non-nil, is passed to node i via a closure so the
	// cluster can seed per-node special roles (e.g. the size leader).
	InitState func(i int) func(epochID uint64, value float64) core.State
	// Clock, when non-nil, drives epoch restarts on every node (§4
	// adaptivity); nil runs one endless epoch.
	Clock *epoch.Clock
	// Samplers, when non-nil, builds node i's membership sampler (self
	// is the node's address, local the cluster's full address table).
	// Nil keeps the default: the complete overlay — a shared
	// full-membership Directory in goroutine mode, the same draw made
	// implicitly on node indices in heap mode. This is how a cluster runs
	// on live gossip membership instead of static configuration — it is
	// honored by both runtimes.
	Samplers func(i int, self string, local []string) (membership.Sampler, error)
	// GossipFanout is how many membership addresses to piggyback per
	// message when a sampler observes traffic (default 3; negative
	// disables). Ignored for directory samplers, which gossip nothing.
	GossipFanout int
	// Mode selects the runtime: ModeGoroutine (the default, two
	// goroutines per node) or ModeHeap (a sharded event-heap scheduler
	// on a small worker pool — the 10⁵-node-per-process path).
	Mode RuntimeMode
	// Workers is the heap runtime's worker/shard count (default
	// GOMAXPROCS; ignored in goroutine mode).
	Workers int
	// BatchWindow bounds message coalescing delay in heap mode (0
	// flushes once per scheduler round; ignored in goroutine mode).
	BatchWindow time.Duration
	// Seed makes the cluster deterministic-ish (scheduling still varies).
	Seed uint64
	// Metrics, when non-nil, registers the runtime's instrumentation
	// (heap mode; goroutine-mode clusters are registered by the caller
	// over Stats, which is already atomic per node).
	Metrics *metrics.Registry
	// TraceSample/TraceRing configure heap-mode exchange tracing; see
	// RuntimeConfig.
	TraceSample int
	TraceRing   int
}

// Cluster is a set of locally running nodes plus their shared fabric.
type Cluster struct {
	nodes  []*Node
	fabric *transport.Fabric
	schema *core.Schema
	rt     *Runtime // non-nil in heap mode

	startOnce sync.Once
	stopOnce  sync.Once
	ctxStop   chan struct{} // closed by Stop to release the ctx watcher
}

// NewCluster builds (but does not start) a local cluster. By default
// every node samples peers uniformly from the whole cluster, matching
// the paper's complete-overlay assumption in O(N) total memory; set
// Samplers to run on live gossip membership instead.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Size < 2 {
		return nil, fmt.Errorf("engine: cluster needs ≥ 2 nodes, got %d", cfg.Size)
	}
	if cfg.Schema == nil {
		return nil, fmt.Errorf("engine: cluster needs a Schema")
	}
	if cfg.Value == nil {
		cfg.Value = func(int) float64 { return 0 }
	}
	if cfg.Mode == ModeHeap {
		rt, err := NewRuntime(RuntimeConfig{
			Size:         cfg.Size,
			Schema:       cfg.Schema,
			Value:        cfg.Value,
			CycleLength:  cfg.CycleLength,
			ReplyTimeout: cfg.ReplyTimeout,
			Wait:         cfg.Wait,
			Fabric:       cfg.Fabric,
			PushOnly:     cfg.PushOnly,
			InitState:    cfg.InitState,
			Clock:        cfg.Clock,
			Samplers:     cfg.Samplers,
			GossipFanout: cfg.GossipFanout,
			Workers:      cfg.Workers,
			BatchWindow:  cfg.BatchWindow,
			Seed:         cfg.Seed,
			Metrics:      cfg.Metrics,
			TraceSample:  cfg.TraceSample,
			TraceRing:    cfg.TraceRing,
		})
		if err != nil {
			return nil, err
		}
		return &Cluster{nodes: rt.Nodes(), fabric: rt.Fabric(), schema: cfg.Schema, rt: rt}, nil
	}
	fabric := cfg.Fabric
	if fabric == nil {
		fabric = transport.NewFabric(transport.WithSeed(cfg.Seed))
	}

	endpoints := make([]transport.Endpoint, cfg.Size)
	addrs := make([]string, cfg.Size)
	for i := range endpoints {
		endpoints[i] = fabric.NewEndpoint()
		addrs[i] = endpoints[i].Addr()
	}

	c := &Cluster{fabric: fabric, schema: cfg.Schema, nodes: make([]*Node, 0, cfg.Size)}
	for i := 0; i < cfg.Size; i++ {
		var sampler membership.Sampler
		var err error
		if cfg.Samplers != nil {
			sampler, err = cfg.Samplers(i, addrs[i], addrs)
		} else {
			sampler, err = membership.NewDirectory(addrs, i)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: sampler for node %d: %w", i, err)
		}
		nodeCfg := Config{
			Schema:       cfg.Schema,
			Endpoint:     endpoints[i],
			Sampler:      sampler,
			Value:        cfg.Value(i),
			CycleLength:  cfg.CycleLength,
			ReplyTimeout: cfg.ReplyTimeout,
			Wait:         cfg.Wait,
			PushOnly:     cfg.PushOnly,
			Clock:        cfg.Clock,
			GossipFanout: cfg.GossipFanout,
			Seed:         cfg.Seed + uint64(i)*0x9e3779b97f4a7c15,
		}
		if cfg.InitState != nil {
			nodeCfg.InitState = cfg.InitState(i)
		}
		node, err := NewNode(nodeCfg)
		if err != nil {
			return nil, fmt.Errorf("engine: node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

// Nodes returns the cluster's nodes in index order.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Fabric returns the shared in-memory fabric (to inject loss or
// partitions mid-test).
func (c *Cluster) Fabric() *transport.Fabric { return c.fabric }

// Runtime returns the heap-mode runtime backing the cluster, or nil in
// goroutine mode.
func (c *Cluster) Runtime() *Runtime { return c.rt }

// Start launches every node. Cancelling ctx stops the cluster exactly
// as Stop would; context.Background() runs until an explicit Stop.
// Calling Start more than once is a no-op (later contexts are
// ignored).
func (c *Cluster) Start(ctx context.Context) {
	c.startOnce.Do(func() {
		if c.rt != nil {
			c.rt.Start(ctx)
			return
		}
		for _, n := range c.nodes {
			n.Start()
		}
		if ctx != nil && ctx.Done() != nil {
			stop := make(chan struct{})
			c.ctxStop = stop
			go func() {
				select {
				case <-ctx.Done():
					c.Stop()
				case <-stop:
				}
			}()
		}
	})
}

// Stop stops every node (and closes their endpoints). All nodes are
// signalled before any is waited on, so teardown is one scheduler
// round, not nodes-many. Idempotent.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() {
		if c.ctxStop != nil {
			close(c.ctxStop)
		}
		if c.rt != nil {
			c.rt.Stop()
			return
		}
		for _, n := range c.nodes {
			n.signalStop()
		}
		for _, n := range c.nodes {
			n.Stop()
		}
	})
}

// Snapshot returns every node's current approximation of the named
// field. It materializes an N-length slice; hot observation paths
// should fold with ReduceField instead.
func (c *Cluster) Snapshot(field string) ([]float64, error) {
	if c.rt != nil {
		return c.rt.Snapshot(field)
	}
	idx, err := c.schema.Index(field)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.fieldAt(idx)
	}
	return out, nil
}

// ReduceField streams every node's current approximation of the named
// field through fn, in node index order, without materializing a
// vector. In heap mode fn runs with the owning shard locked (it must
// be fast and must not call back into the cluster); in goroutine mode
// each node is locked individually, so the fold is per-node atomic,
// not a global snapshot — exactly as Snapshot behaves.
func (c *Cluster) ReduceField(field string, fn func(v float64)) error {
	if c.rt != nil {
		return c.rt.ReduceField(field, fn)
	}
	idx, err := c.schema.Index(field)
	if err != nil {
		return err
	}
	for _, n := range c.nodes {
		if n.failed.Load() || n.isAdversary() {
			continue // crashed and Byzantine nodes are not honest population
		}
		fn(n.fieldAt(idx))
	}
	return nil
}

// ReduceValues streams every node's local input value through fn in
// index order — the truth the aggregate should track. Same locking
// contract as ReduceField.
func (c *Cluster) ReduceValues(fn func(v float64)) {
	if c.rt != nil {
		c.rt.ReduceValues(fn)
		return
	}
	for _, n := range c.nodes {
		if n.failed.Load() || n.isAdversary() {
			continue
		}
		fn(n.Value())
	}
}

// InjectValue updates node i's local attribute and folds the delta into
// its current approximation of field idx — see Node.InjectValue.
func (c *Cluster) InjectValue(i, idx int, v float64) {
	if c.rt != nil {
		c.rt.InjectValue(i, idx, v)
		return
	}
	c.nodes[i].InjectValue(idx, v)
}

// FailNode crashes node i until ReviveNode; see Node.Fail.
func (c *Cluster) FailNode(i int) bool {
	if c.rt != nil {
		return c.rt.FailNode(i)
	}
	return c.nodes[i].Fail()
}

// ReviveNode restores a failed node as a fresh joiner; see Node.Revive.
func (c *Cluster) ReviveNode(i int) bool {
	if c.rt != nil {
		return c.rt.ReviveNode(i)
	}
	return c.nodes[i].Revive()
}

// SetAdversaries turns the given nodes into Byzantine adversaries of
// the given behavior (extreme-value reporters pin magnitude, colluding
// and eclipse reporters pin target, selective droppers ack-then-discard)
// and restores every other node to honest operation. An empty set
// clears all adversaries. At least two honest nodes must remain.
func (c *Cluster) SetAdversaries(behavior sim.AdversaryBehavior, nodes []int, magnitude, target float64) error {
	if c.rt != nil {
		return c.rt.SetAdversaries(behavior, nodes, magnitude, target)
	}
	mark := make([]bool, len(c.nodes))
	count := 0
	for _, i := range nodes {
		if i < 0 || i >= len(c.nodes) {
			return fmt.Errorf("engine: adversary index %d out of range [0,%d)", i, len(c.nodes))
		}
		if !mark[i] {
			mark[i] = true
			count++
		}
	}
	if count > 0 && len(c.nodes)-count < 2 {
		return fmt.Errorf("engine: %d adversaries leave fewer than 2 honest nodes", count)
	}
	// The eclipse flood digest — every adversary address at age 0 — is
	// shared read-only across all adversaries.
	var gossip []string
	var ages []uint32
	if behavior == sim.AdvEclipse && count > 0 {
		gossip = make([]string, 0, count)
		for i, m := range mark {
			if m {
				gossip = append(gossip, c.nodes[i].Addr())
			}
		}
		ages = make([]uint32, len(gossip))
	}
	for i, n := range c.nodes {
		if mark[i] {
			n.setAdversary(behavior, magnitude, target, gossip, ages)
		} else {
			n.clearAdversary()
		}
	}
	return nil
}

// AdversaryCount returns how many nodes are configured as adversaries.
func (c *Cluster) AdversaryCount() int {
	if c.rt != nil {
		return c.rt.AdversaryCount()
	}
	count := 0
	for _, n := range c.nodes {
		if n.isAdversary() {
			count++
		}
	}
	return count
}

// SetRobust installs (or, with a zero Policy, removes) the robust-merge
// countermeasures on every node. Each node's trim acceptance band is
// seeded from the honest population's current field-0 spread — a warmup
// window that accepts everything would itself be a poisoning vector.
func (c *Cluster) SetRobust(p robust.Policy) {
	if c.rt != nil {
		c.rt.SetRobust(p)
		return
	}
	if p.Trim && p.TrimK <= 0 {
		p.TrimK = 8
	}
	var run stats.Running
	for _, n := range c.nodes {
		if n.failed.Load() || n.isAdversary() {
			continue
		}
		run.Add(n.fieldAt(0))
	}
	seed := robust.TrimState{Scale: math.Sqrt(run.Variance())}
	if !(seed.Scale > 1e-12) {
		seed.Scale = 1e-12 // degenerate spread (or NaN): keep the band open a crack
	}
	for _, n := range c.nodes {
		n.setRobust(p, seed)
	}
}

// RobustRejected returns the cumulative number of exchange halves the
// robust trim gate has rejected across all nodes.
func (c *Cluster) RobustRejected() uint64 {
	if c.rt != nil {
		return c.rt.RobustRejected()
	}
	var total uint64
	for _, n := range c.nodes {
		total += n.robustRejected.Load()
	}
	return total
}

// FailedNodes returns how many member nodes are currently failed.
func (c *Cluster) FailedNodes() int {
	if c.rt != nil {
		return c.rt.FailedNodes()
	}
	count := 0
	for _, n := range c.nodes {
		if n.failed.Load() {
			count++
		}
	}
	return count
}

// Variance returns the cross-node empirical variance of the named field —
// the live-engine analogue of the paper's σ². It folds shard-by-shard
// (Welford), allocating nothing per node.
func (c *Cluster) Variance(field string) (float64, error) {
	var run stats.Running
	if err := c.ReduceField(field, run.Add); err != nil {
		return 0, err
	}
	return run.Variance(), nil
}

// WaitConverged polls until the named field's cross-node variance falls
// to at most tol, returning the final variance and whether the deadline
// was met.
func (c *Cluster) WaitConverged(field string, tol float64, timeout time.Duration) (float64, bool, error) {
	deadline := time.Now().Add(timeout)
	interval := 5 * time.Millisecond
	for {
		v, err := c.Variance(field)
		if err != nil {
			return 0, false, err
		}
		if v <= tol {
			return v, true, nil
		}
		if time.Now().After(deadline) {
			return v, false, nil
		}
		time.Sleep(interval)
	}
}
