package repro

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/robust"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// Reducer folds a stream of per-node field values (System.Reduce).
// *Running implements it.
type Reducer interface {
	Add(x float64)
}

// Running is a Welford-style streaming accumulator (count, mean,
// unbiased variance, extrema) that implements Reducer — the standard
// fold for System.Reduce and the type behind every Estimate.
type Running = stats.Running

// Estimate is one typed snapshot of a watched field: the cross-node
// reduction of every locally hosted node's current approximation.
type Estimate struct {
	// Field names the reduced schema field.
	Field string
	// Seq is the snapshot index since the field's watch fan-out started
	// (0-based); all subscribers of one field observe the same sequence,
	// and a gap means the receiver fell behind and skipped snapshots.
	// Zero for one-shot Query snapshots.
	Seq int
	// Time is when the snapshot was taken.
	Time time.Time
	// Nodes is how many hosted node states were folded in.
	Nodes int
	// Mean, Variance, Min and Max reduce the field across nodes. At
	// convergence every node holds ≈ Mean and Variance ≈ 0.
	Mean, Variance, Min, Max float64
	// Dropped counts the snapshots this subscriber has lost to
	// latest-wins delivery since subscribing: each is an undelivered
	// snapshot that was replaced in the channel slot because the
	// receiver lagged a full cycle. Cumulative; a receiver that keeps
	// up sees it stay constant while Seq advances.
	Dropped int
}

// sysConfig is the Option-assembled configuration of Open.
type sysConfig struct {
	size      int
	sizeSet   bool
	schema    *core.Schema
	value     func(i int) float64
	cycle     time.Duration
	timeout   time.Duration
	wait      engine.WaitPolicy
	workers   int
	seed      uint64
	epochLen  time.Duration
	pushOnly  bool
	view      int
	tcp       bool
	listen    string
	peers     []string
	initState func(i int) func(epochID uint64, value float64) core.State
	ctx       context.Context
	ops       string
	trace     int
	gossip    bool

	advSet       bool
	advBehavior  string
	advFraction  float64
	advMagnitude float64
	advTarget    float64
	robust       *RobustConfig
	momBuckets   int

	// reg is threaded through to the engine layers; assembled by Open,
	// not an option.
	reg *metrics.Registry
}

// Option configures Open.
type Option func(*sysConfig) error

// WithSize sets the number of locally hosted nodes (default 2
// in-memory, 1 with WithTCP — the deployable single-node shape).
func WithSize(n int) Option {
	return func(c *sysConfig) error {
		if n < 1 {
			return fmt.Errorf("repro: WithSize needs n ≥ 1, got %d", n)
		}
		c.size, c.sizeSet = n, true
		return nil
	}
}

// WithSchema sets the gossiped field schema (default NewAverageSchema).
func WithSchema(s *Schema) Option {
	return func(c *sysConfig) error {
		if s == nil {
			return fmt.Errorf("repro: WithSchema needs a schema")
		}
		c.schema = s
		return nil
	}
}

// WithValues supplies node i's local attribute a_i.
func WithValues(f func(i int) float64) Option {
	return func(c *sysConfig) error {
		c.value = f
		return nil
	}
}

// WithValue gives every hosted node the same local attribute — the
// usual shape for a single-node TCP system.
func WithValue(v float64) Option {
	return WithValues(func(int) float64 { return v })
}

// WithCycleLength sets Δt, the (mean) time between initiated
// exchanges (default 100ms).
func WithCycleLength(d time.Duration) Option {
	return func(c *sysConfig) error {
		if d <= 0 {
			return fmt.Errorf("repro: WithCycleLength needs a positive duration, got %v", d)
		}
		c.cycle = d
		return nil
	}
}

// WithReplyTimeout bounds the pull-reply wait (default Δt/2).
func WithReplyTimeout(d time.Duration) Option {
	return func(c *sysConfig) error {
		c.timeout = d
		return nil
	}
}

// WithWaitPolicy selects the §1.1 waiting-time distribution (default
// ConstantWait; ExponentialWait approximates GETPAIR_RAND dynamics).
func WithWaitPolicy(p WaitPolicy) Option {
	return func(c *sysConfig) error {
		c.wait = p
		return nil
	}
}

// WithMode once selected the scheduler for in-memory systems.
//
// Deprecated: every System runs the sharded runtime; the option is
// ignored.
func WithMode(m RuntimeMode) Option {
	return func(*sysConfig) error { return nil }
}

// WithWorkers bounds the scheduler's worker/shard pool (default
// GOMAXPROCS, and always 1 for a single TCP node).
func WithWorkers(n int) Option {
	return func(c *sysConfig) error {
		c.workers = n
		return nil
	}
}

// WithSeed makes node randomness reproducible (default 1; live
// scheduling still varies).
func WithSeed(seed uint64) Option {
	return func(c *sysConfig) error {
		c.seed = seed
		return nil
	}
}

// WithEpochLength enables periodic epoch restarts (§4 adaptivity):
// every node reinitializes from its current local value each period,
// so SetValue changes enter the aggregate with one-epoch delay.
func WithEpochLength(d time.Duration) Option {
	return func(c *sysConfig) error {
		if d <= 0 {
			return fmt.Errorf("repro: WithEpochLength needs a positive duration, got %v", d)
		}
		c.epochLen = d
		return nil
	}
}

// WithPushOnly enables the push-only ablation on every node.
func WithPushOnly() Option {
	return func(c *sysConfig) error {
		c.pushOnly = true
		return nil
	}
}

// WithGossipMembership runs an in-memory system on live gossip
// membership instead of the default complete overlay: each node
// starts knowing only its ring successor and learns the rest of the
// population from digests piggybacked on protocol traffic, exactly as
// TCP systems always do. Costs O(view) memory per node, and exercises
// join/leave/failure dynamics the complete overlay can't. No effect on
// TCP systems (already gossip).
func WithGossipMembership() Option {
	return func(c *sysConfig) error {
		c.gossip = true
		return nil
	}
}

// WithMembershipView sets the gossip membership view capacity (default
// 8). Applies to TCP systems and to in-memory systems opened with
// WithGossipMembership; directory-backed systems ignore it.
func WithMembershipView(capacity int) Option {
	return func(c *sysConfig) error {
		if capacity < 1 {
			return fmt.Errorf("repro: WithMembershipView needs capacity ≥ 1, got %d", capacity)
		}
		c.view = capacity
		return nil
	}
}

// WithTCP deploys the system over real sockets: listen is the first
// (or only) node's address ("127.0.0.1:0" for an ephemeral port), and
// seedPeers bootstrap membership discovery via piggybacked gossip. A
// size-1 system is one deployable node (the aggnode shape); larger
// sizes host the population on the heap runtime with one TCP endpoint
// per worker and sub-addressed nodes.
func WithTCP(listen string, seedPeers ...string) Option {
	return func(c *sysConfig) error {
		if listen == "" {
			return fmt.Errorf("repro: WithTCP needs a listen address")
		}
		c.tcp = true
		c.listen = listen
		c.peers = append([]string(nil), seedPeers...)
		return nil
	}
}

// WithInitState overrides state initialization for node i (e.g. to
// seed a size-estimation leader's indicator field).
func WithInitState(f func(i int) func(epochID uint64, value float64) State) Option {
	return func(c *sysConfig) error {
		c.initState = f
		return nil
	}
}

// WithContext scopes the system's lifetime: cancelling ctx stops it
// exactly as Close would.
func WithContext(ctx context.Context) Option {
	return func(c *sysConfig) error {
		c.ctx = ctx
		return nil
	}
}

// WithOps starts an operational HTTP server on addr ("127.0.0.1:0"
// for an ephemeral port, see System.OpsAddr) serving /metrics
// (Prometheus text exposition), /healthz (liveness plus convergence
// summary), /varz (flat JSON of telemetry and every metric) and
// net/http/pprof under /debug/pprof/. Scrapes read only atomics — a
// busy 10⁵-node system serves /metrics without stalling a worker.
func WithOps(addr string) Option {
	return func(c *sysConfig) error {
		if addr == "" {
			return fmt.Errorf("repro: WithOps needs a listen address")
		}
		c.ops = addr
		return nil
	}
}

// WithTraceSampling records every n-th initiated exchange per shard
// into a fixed-size trace ring, drained with System.Trace. Sampling
// costs two stores and one integer parse per sampled exchange and
// nothing otherwise; n = 0 (the default) disables tracing entirely.
func WithTraceSampling(n int) Option {
	return func(c *sysConfig) error {
		if n < 0 {
			return fmt.Errorf("repro: WithTraceSampling needs n ≥ 0, got %d", n)
		}
		c.trace = n
		return nil
	}
}

// RobustConfig selects the robust-merge countermeasures that bound how
// far a Byzantine reporter can drag the aggregate (see DESIGN.md
// "Adversary model & robust aggregation"). Both act on the schema's
// first field and gate the exchange as a whole.
type RobustConfig struct {
	// Clamp bounds inbound estimates into [ClampMin, ClampMax] before
	// merging. Pick bounds wider than the trim band: a clamp tight
	// enough to sit inside TrimK·σ pulls poison into the trim gate's
	// acceptance band and legitimizes it.
	Clamp              bool
	ClampMin, ClampMax float64
	// Trim rejects exchanges whose delta falls outside each node's
	// running acceptance band of TrimK scale units (default 8).
	Trim  bool
	TrimK float64
}

// policy maps the public config onto the engine-internal policy.
func (c RobustConfig) policy() robust.Policy {
	return robust.Policy{
		Clamp: c.Clamp, ClampMin: c.ClampMin, ClampMax: c.ClampMax,
		Trim: c.Trim, TrimK: c.TrimK,
	}
}

// validate rejects configurations the engines would misapply.
func (c RobustConfig) validate() error {
	if c.Clamp && !(c.ClampMin < c.ClampMax) {
		return fmt.Errorf("repro: robust clamp range [%v,%v] is empty", c.ClampMin, c.ClampMax)
	}
	if c.Trim && c.TrimK < 0 {
		return fmt.Errorf("repro: robust trim K %v must not be negative", c.TrimK)
	}
	return nil
}

// adversaryBehavior parses the wire name of an adversary behavior (the
// same names scenario specs use).
func adversaryBehavior(name string) (sim.AdversaryBehavior, error) {
	switch name {
	case "", "extreme-value":
		return sim.AdvExtreme, nil
	case "colluding":
		return sim.AdvColluding, nil
	case "selective-drop":
		return sim.AdvSelectiveDrop, nil
	case "eclipse":
		return sim.AdvEclipse, nil
	}
	return 0, fmt.Errorf("repro: unknown adversary behavior %q (want extreme-value, colluding, selective-drop or eclipse)", name)
}

// WithAdversaries opens the system with a fraction of its hosted nodes
// acting as Byzantine adversaries of the named behavior ("extreme-value"
// — or empty — reports magnitude; "colluding" and "eclipse" report
// target; "selective-drop" acks exchanges and discards the merge). The
// count rounds up to at least one node when fraction > 0. Fault
// injection for experiments — see System.SetAdversaries for the live
// equivalent.
func WithAdversaries(behavior string, fraction, magnitude, target float64) Option {
	return func(c *sysConfig) error {
		if _, err := adversaryBehavior(behavior); err != nil {
			return err
		}
		if fraction < 0 || fraction >= 1 || math.IsNaN(fraction) {
			return fmt.Errorf("repro: adversary fraction %v outside [0,1)", fraction)
		}
		c.advSet = true
		c.advBehavior, c.advFraction = behavior, fraction
		c.advMagnitude, c.advTarget = magnitude, target
		return nil
	}
}

// WithRobustMerge opens the system with robust-merge countermeasures
// installed on every hosted node (see RobustConfig).
func WithRobustMerge(cfg RobustConfig) Option {
	return func(c *sysConfig) error {
		if err := cfg.validate(); err != nil {
			return err
		}
		c.robust = &cfg
		return nil
	}
}

// WithMedianOfMeans makes every snapshot (Query, Watch, WaitConverged,
// the convergence tracker) report the median-of-means of the reduced
// field instead of the plain mean: values fold round-robin into buckets
// and the estimate is the median of the bucket means, so a minority of
// corrupted node states cannot drag the reported aggregate. Variance,
// min and max still reduce plainly. See also QueryRobust for a
// per-query override.
func WithMedianOfMeans(buckets int) Option {
	return func(c *sysConfig) error {
		if buckets < 1 {
			return fmt.Errorf("repro: WithMedianOfMeans needs ≥ 1 bucket, got %d", buckets)
		}
		c.momBuckets = buckets
		return nil
	}
}

// System is a live aggregation service: a set of locally hosted
// protocol nodes continuously maintaining every node's approximation of
// the global aggregates, all on one sharded runtime — an in-memory
// population, a population behind TCP endpoints, or one deployable TCP
// node. Open assembles and starts it; observe it with Watch (streaming
// typed snapshots), Reduce (custom folds without materializing state),
// Query and WaitConverged; Close shuts it down.
type System struct {
	schema *core.Schema
	cycle  time.Duration

	// momBuckets, when > 0, switches every snapshot's mean to the
	// median-of-means estimator (WithMedianOfMeans).
	momBuckets int

	rt *engine.Runtime
	// tcp is set on the TCP shapes, where remote peers hold part of the
	// population; unset, the runtime is in memory and hosts all of it.
	tcp bool

	// watchMu guards the per-field fan-out hubs; reduceCount counts
	// snapshot reductions (observability for the fan-out sharing tests).
	watchMu     sync.Mutex
	hubs        map[string]*watchHub
	reduceCount atomic.Uint64

	// metrics is the system's registry; every series is a lock-free
	// read over state the layers maintain anyway. Served by the ops
	// endpoint and pinned by the metric-name golden test.
	metrics  *metrics.Registry
	openedAt time.Time

	// tele is the convergence tracker (telemetry.go); ops the HTTP
	// server (ops.go), nil unless WithOps was given.
	tele telemetryState
	ops  *opsServer

	// serveStats, when set, reports the service layer's live stream
	// count and cumulative latest-wins drops for Telemetry stamping
	// (serve.New installs it; see SetServeStats).
	serveStats atomic.Pointer[func() (streams int, dropped uint64)]

	done      chan struct{}
	closeOnce sync.Once
}

// watchSub is one Watch subscriber: a one-slot channel holding the most
// recent snapshot, and the context whose cancellation unsubscribes it.
// dropped is written only by the hub goroutine.
type watchSub struct {
	ch      chan Estimate
	ctx     context.Context
	dropped int
}

// watchHub fans one field's per-cycle snapshot out to every subscriber:
// however many watchers a field has, its state is reduced once per
// cycle. The hub goroutine starts with the first subscriber and exits —
// removing itself from the system's hub table — when the last one
// unsubscribes (or the system closes).
type watchHub struct {
	sys   *System
	field string
	seq   int
	subs  []*watchSub

	// Per-field observability: live subscriber count, snapshots taken,
	// and latest-wins drops summed over subscribers (per-subscriber
	// counts ride on Estimate.Dropped).
	subsGauge *metrics.Gauge
	snaps     *metrics.Counter
	drops     *metrics.Counter
}

// add registers a subscriber. Caller holds sys.watchMu.
func (h *watchHub) add(ctx context.Context) *watchSub {
	sub := &watchSub{ch: make(chan Estimate, 1), ctx: ctx}
	h.subs = append(h.subs, sub)
	h.subsGauge.Set(float64(len(h.subs)))
	return sub
}

// run is the hub goroutine: one snapshot per cycle, delivered
// latest-wins to every live subscriber; cancelled subscribers are
// pruned (their channels closed) at the tick following cancellation —
// within one cycle, like the snapshots themselves.
func (h *watchHub) run() {
	ticker := time.NewTicker(h.sys.cycle)
	defer ticker.Stop()
	for {
		select {
		case <-h.sys.done:
			h.sys.watchMu.Lock()
			for _, sub := range h.subs {
				close(sub.ch)
			}
			h.subs = nil
			h.subsGauge.Set(0)
			delete(h.sys.hubs, h.field)
			h.sys.watchMu.Unlock()
			return
		case <-ticker.C:
		}
		h.sys.watchMu.Lock()
		live := h.subs[:0]
		for _, sub := range h.subs {
			if sub.ctx.Err() != nil {
				close(sub.ch)
				continue
			}
			live = append(live, sub)
		}
		for i := len(live); i < len(h.subs); i++ {
			h.subs[i] = nil
		}
		h.subs = live
		h.subsGauge.Set(float64(len(h.subs)))
		if len(h.subs) == 0 {
			delete(h.sys.hubs, h.field)
			h.sys.watchMu.Unlock()
			return
		}
		subs := h.subs
		h.sys.watchMu.Unlock()

		est, err := h.sys.snapshot(context.Background(), h.field, h.seq)
		if err != nil {
			continue // transient: the system may be mid-close
		}
		h.seq++
		h.snaps.Inc()
		for _, sub := range subs {
			// Latest-wins delivery: replace a stale undelivered snapshot
			// rather than blocking the hub (and every other subscriber)
			// on one slow receiver. Each replacement is a drop, counted
			// per subscriber (stamped on the outgoing snapshot) and per
			// field (the hub counter) so slow-watcher starvation is
			// visible instead of silent.
			est.Dropped = sub.dropped
			select {
			case sub.ch <- est:
			default:
				select {
				case <-sub.ch:
					sub.dropped++
					h.drops.Inc()
					est.Dropped = sub.dropped
				default:
				}
				select {
				case sub.ch <- est:
				default:
				}
			}
		}
	}
}

// Open assembles a live aggregation system from functional options and
// starts it. The zero-option call opens a two-node in-memory system
// gossiping a plain average. See WithSize, WithSchema, WithValues,
// WithCycleLength, WithTCP and friends for the axes; Close
// (or a WithContext cancellation) shuts the system down.
func Open(opts ...Option) (*System, error) {
	cfg := sysConfig{
		size:   2,
		cycle:  100 * time.Millisecond,
		seed:   1,
		view:   8,
		ctx:    context.Background(),
		value:  func(int) float64 { return 0 },
		schema: NewAverageSchema(),
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.tcp && !cfg.sizeSet {
		cfg.size = 1
	}
	if cfg.size == 1 && !cfg.tcp {
		return nil, fmt.Errorf("repro: a size-1 system needs WithTCP (an in-memory node has nobody to gossip with)")
	}

	var clock *epoch.Clock
	if cfg.epochLen > 0 {
		c, err := epoch.NewClock(time.Unix(0, 0), cfg.epochLen)
		if err != nil {
			return nil, err
		}
		clock = c
	}

	reg := metrics.New()
	cfg.reg = reg
	sys := &System{
		schema:     cfg.schema,
		cycle:      cfg.cycle,
		momBuckets: cfg.momBuckets,
		metrics:    reg,
		openedAt:   time.Now(),
		done:       make(chan struct{}),
		tcp:        cfg.tcp,
	}
	open := openRuntime
	if cfg.tcp {
		open = openTCPRuntime
	}
	rt, err := open(cfg, clock)
	if err != nil {
		return nil, err
	}
	sys.rt = rt
	sys.registerSystemMetrics()
	// Adversaries before robust countermeasures, and both before the
	// engine starts: the trim gate seeds its acceptance band from the
	// honest population's spread, which is only known once the
	// adversaries are marked, and is only honest while no exchange has
	// yet spread their poison.
	if cfg.advSet {
		if err := sys.SetAdversaries(cfg.advBehavior, cfg.advFraction, cfg.advMagnitude, cfg.advTarget); err != nil {
			sys.Close()
			return nil, err
		}
	}
	if cfg.robust != nil {
		if err := sys.SetRobust(*cfg.robust); err != nil {
			sys.Close()
			return nil, err
		}
	}
	sys.rt.Start(cfg.ctx)
	if cfg.ops != "" {
		if err := sys.startOps(cfg.ops); err != nil {
			sys.Close()
			return nil, err
		}
	}
	if cfg.ctx.Done() != nil {
		// Context cancellation must close the whole System — including
		// sys.done, which ends live Watch channels and WaitConverged
		// polls — not just the engine underneath (Close is idempotent,
		// so doubling up with the engine's own ctx watcher is safe).
		go func() {
			select {
			case <-cfg.ctx.Done():
				sys.Close()
			case <-sys.done:
			}
		}()
	}
	return sys, nil
}

// openRuntime assembles the in-memory shape: a runtime with no
// endpoint, every message in process, on the complete overlay or, with
// WithGossipMembership, on gossip views bootstrapped from the ring
// successor.
func openRuntime(cfg sysConfig, clock *epoch.Clock) (*engine.Runtime, error) {
	rcfg := engine.RuntimeConfig{
		Size:         cfg.size,
		Schema:       cfg.schema,
		Value:        cfg.value,
		CycleLength:  cfg.cycle,
		ReplyTimeout: cfg.timeout,
		Wait:         cfg.wait,
		PushOnly:     cfg.pushOnly,
		InitState:    cfg.initState,
		Clock:        clock,
		Workers:      cfg.workers,
		Seed:         cfg.seed,
		Metrics:      cfg.reg,
		TraceSample:  cfg.trace,
	}
	if cfg.gossip {
		// Live membership: every peer past the ring successor is learned
		// from piggybacked digests.
		rcfg.Samplers = func(i int, self string, local []string) (membership.Sampler, error) {
			return membership.NewGossipSampler(self, cfg.view, []string{local[(i+1)%len(local)]})
		}
	}
	return engine.NewRuntime(rcfg)
}

// openTCPRuntime assembles the TCP shapes: the runtime with one TCP
// endpoint per worker (the first on the configured listen address, the
// rest on ephemeral ports of the same host) and gossip membership
// bootstrapped from the remote seeds plus a local sibling. A single node
// (the aggnode shape) runs one worker; with no seeds its view starts
// empty, so it initiates nothing until a peer contacts it.
func openTCPRuntime(cfg sysConfig, clock *epoch.Clock) (*engine.Runtime, error) {
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.size/2 {
		workers = max(cfg.size/2, 1)
	}
	first, err := transport.NewTCPEndpoint(cfg.listen)
	if err != nil {
		return nil, err
	}
	endpoints := []transport.Endpoint{first}
	host, _, err := net.SplitHostPort(first.Addr())
	if err != nil {
		_ = first.Close()
		return nil, err
	}
	for len(endpoints) < workers {
		ep, err := transport.NewTCPEndpoint(net.JoinHostPort(host, "0"))
		if err != nil {
			for _, e := range endpoints {
				_ = e.Close()
			}
			return nil, err
		}
		endpoints = append(endpoints, ep)
	}
	seeds := cfg.peers
	return engine.NewRuntime(engine.RuntimeConfig{
		Size:         cfg.size,
		Schema:       cfg.schema,
		Value:        cfg.value,
		CycleLength:  cfg.cycle,
		ReplyTimeout: cfg.timeout,
		Wait:         cfg.wait,
		Endpoints:    endpoints,
		PushOnly:     cfg.pushOnly,
		InitState:    cfg.initState,
		Clock:        clock,
		Seed:         cfg.seed,
		Metrics:      cfg.reg,
		TraceSample:  cfg.trace,
		Samplers: func(i int, self string, local []string) (membership.Sampler, error) {
			// Bootstrap: the remote seeds plus the next local sibling,
			// so the local mesh is connected even before any remote
			// gossip arrives.
			boot := append([]string{}, seeds...)
			if sib := local[(i+1)%len(local)]; sib != self {
				boot = append(boot, sib)
			}
			return membership.NewGossipSampler(self, cfg.view, boot)
		},
	})
}

// Size returns the number of locally hosted nodes.
func (s *System) Size() int { return s.rt.Size() }

// Nodes returns per-node handles in index order (point queries,
// SetValue, Addr).
func (s *System) Nodes() []*Node { return s.rt.Nodes() }

// Workers returns the scheduler's parallel worker (shard) count: 1 for
// the single TCP node.
func (s *System) Workers() int { return s.rt.Workers() }

// Schema returns the gossiped field schema.
func (s *System) Schema() *Schema { return s.schema }

// Stats returns the element-wise sum of every hosted node's protocol
// counters.
func (s *System) Stats() NodeStats { return s.rt.Stats() }

// Reduce folds every hosted node's current approximation of the named
// field into r, shard by shard, without materializing an N-length
// vector — the observation primitive that scales to 10⁶ in-process
// nodes. r.Add runs under the owning shard's lock: keep it fast and do
// not call back into the system. Returns promptly; ctx is checked once
// at entry.
func (s *System) Reduce(ctx context.Context, field string, r Reducer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.reduceCount.Add(1)
	return s.rt.ReduceField(field, r.Add)
}

// Query takes one typed snapshot of the named field.
func (s *System) Query(ctx context.Context, field string) (Estimate, error) {
	return s.snapshot(ctx, field, 0)
}

// snapshot reduces the field into an Estimate stamped with seq.
func (s *System) snapshot(ctx context.Context, field string, seq int) (Estimate, error) {
	if s.momBuckets > 0 {
		return s.snapshotMoM(ctx, field, seq, s.momBuckets)
	}
	var run Running
	if err := s.Reduce(ctx, field, &run); err != nil {
		return Estimate{}, err
	}
	return Estimate{
		Field:    field,
		Seq:      seq,
		Time:     time.Now(),
		Nodes:    run.N(),
		Mean:     run.Mean(),
		Variance: run.Variance(),
		Min:      run.Min(),
		Max:      run.Max(),
	}, nil
}

// momFold feeds one reduce pass into both the moment accumulator (for
// Nodes/Variance/Min/Max) and a median-of-means sketch (for the robust
// Mean).
type momFold struct {
	run Running
	mom *stats.MedianOfMeans
}

func (m *momFold) Add(x float64) {
	m.run.Add(x)
	m.mom.Add(x)
}

// snapshotMoM is snapshot with the Mean replaced by a median-of-means
// estimate over the requested number of buckets: each of the b buckets
// averages ~N/b node values and the median bucket mean is reported, so
// up to half the buckets can be poisoned by outliers without moving the
// result. Variance/Min/Max stay the raw moments — they describe the
// population, poison included.
func (s *System) snapshotMoM(ctx context.Context, field string, seq, buckets int) (Estimate, error) {
	fold := momFold{mom: stats.NewMedianOfMeans(buckets)}
	if err := s.Reduce(ctx, field, &fold); err != nil {
		return Estimate{}, err
	}
	return Estimate{
		Field:    field,
		Seq:      seq,
		Time:     time.Now(),
		Nodes:    fold.run.N(),
		Mean:     fold.mom.Estimate(),
		Variance: fold.run.Variance(),
		Min:      fold.run.Min(),
		Max:      fold.run.Max(),
	}, nil
}

// QueryRobust takes one typed snapshot of the named field with its Mean
// computed by median-of-means over the given number of buckets,
// regardless of the system-wide WithMedianOfMeans setting (the
// per-query escape hatch behind /v1/query's ?mom= parameter).
func (s *System) QueryRobust(ctx context.Context, field string, buckets int) (Estimate, error) {
	if buckets < 1 {
		return Estimate{}, fmt.Errorf("repro: median-of-means needs at least 1 bucket, got %d", buckets)
	}
	return s.snapshotMoM(ctx, field, 0, buckets)
}

// Watch streams one typed snapshot of the named field per cycle (Δt)
// until ctx is cancelled or the system closes, then closes the
// channel. Cancellation takes effect within one cycle.
//
// All subscribers of one field share a single fan-out hub: the field is
// reduced once per cycle no matter how many watchers it has, and every
// watcher observes the same Seq sequence. Delivery is latest-wins: a
// receiver that falls behind finds the most recent snapshot in its
// channel, with Seq gaps marking the skipped ones.
func (s *System) Watch(ctx context.Context, field string) (<-chan Estimate, error) {
	if _, err := s.schema.Index(field); err != nil {
		return nil, err
	}
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	if s.hubs == nil {
		s.hubs = make(map[string]*watchHub)
	}
	hub, ok := s.hubs[field]
	if !ok {
		lbl := metrics.Label{Key: "field", Value: field}
		hub = &watchHub{
			sys:   s,
			field: field,
			subsGauge: s.metrics.Gauge("repro_watch_subscribers",
				"Live Watch subscribers of the field.", lbl),
			snaps: s.metrics.Counter("repro_watch_snapshots_total",
				"Per-cycle snapshots the field's fan-out hub has taken.", lbl),
			drops: s.metrics.Counter("repro_watch_dropped_total",
				"Snapshots lost to latest-wins delivery, summed over the field's subscribers.", lbl),
		}
		s.hubs[field] = hub
		go hub.run()
	}
	return hub.add(ctx).ch, nil
}

// WaitConverged polls once per cycle until the named field's
// cross-node variance falls to at most tol, returning the converged
// snapshot. It returns the context's error if ctx is cancelled first,
// alongside the last snapshot taken.
func (s *System) WaitConverged(ctx context.Context, field string, tol float64) (Estimate, error) {
	ticker := time.NewTicker(s.cycle)
	defer ticker.Stop()
	var last Estimate
	for {
		est, err := s.snapshot(ctx, field, last.Seq)
		if err != nil {
			return last, err
		}
		last = est
		if est.Variance <= tol {
			return est, nil
		}
		select {
		case <-ctx.Done():
			return last, ctx.Err()
		case <-s.done:
			return last, fmt.Errorf("repro: system closed while waiting for convergence")
		case <-ticker.C:
		}
	}
}

// SetValue updates node i's local attribute to v and folds the
// difference into its current approximation of the named field, so the
// injected value enters the aggregate immediately — the feed API behind
// the service layer's POST /v1/values and the dynamic-signals workload.
//
// The apply is shard-local under the engine's existing round lock and
// mass-conserving: an exchange in flight replies with a transfer that
// lands on top of the delta, so the converged mean moves to exactly the
// new population mean (§3.2). Safe to call concurrently with exchanges,
// reduces and other SetValue calls.
func (s *System) SetValue(node int, field string, v float64) error {
	idx, err := s.schema.Index(field)
	if err != nil {
		return err
	}
	if node < 0 || node >= s.Size() {
		return fmt.Errorf("repro: SetValue node %d out of range [0,%d)", node, s.Size())
	}
	s.rt.InjectValue(node, idx, v)
	return nil
}

// FailNode silently crashes hosted node i until ReviveNode: it stops
// initiating, drops all inbound traffic, and leaves every reduce —
// peers observe only missed reply deadlines, exactly like a process
// crash. Live fault injection for a running system (POST /v1/scenario).
func (s *System) FailNode(node int) error {
	if node < 0 || node >= s.Size() {
		return fmt.Errorf("repro: FailNode node %d out of range [0,%d)", node, s.Size())
	}
	s.rt.FailNode(node)
	return nil
}

// ReviveNode brings a failed node back as a fresh joiner: its state
// reinitializes from its current local value and it resumes gossiping
// on its existing cadence. A no-op for nodes that are not failed.
func (s *System) ReviveNode(node int) error {
	if node < 0 || node >= s.Size() {
		return fmt.Errorf("repro: ReviveNode node %d out of range [0,%d)", node, s.Size())
	}
	s.rt.ReviveNode(node)
	return nil
}

// FailedNodes returns how many hosted nodes are currently failed via
// FailNode.
func (s *System) FailedNodes() int { return s.rt.FailedNodes() }

// SetAdversaries reconfigures a fraction of the hosted nodes as
// Byzantine adversaries on the live system (POST /v1/scenario's
// "adversary" section): behavior names match WithAdversaries, fraction
// 0 restores every node to honest operation, and adversaries are spread
// evenly across the node index space (and therefore across shards).
// Magnitude 0 defaults to 1000. Errors when fewer than two honest
// nodes would remain, so always on the single-node TCP shape.
func (s *System) SetAdversaries(behavior string, fraction, magnitude, target float64) error {
	b, err := adversaryBehavior(behavior)
	if err != nil {
		return err
	}
	if fraction < 0 || fraction >= 1 || math.IsNaN(fraction) {
		return fmt.Errorf("repro: adversary fraction %v outside [0,1)", fraction)
	}
	if magnitude == 0 {
		magnitude = 1000
	}
	n := s.Size()
	var idx []int
	if fraction > 0 {
		count := int(fraction * float64(n))
		if count < 1 {
			count = 1
		}
		idx = make([]int, count)
		for i := range idx {
			idx[i] = i * n / count
		}
	}
	return s.rt.SetAdversaries(b, idx, magnitude, target)
}

// AdversaryCount returns how many hosted nodes currently act as
// Byzantine adversaries.
func (s *System) AdversaryCount() int { return s.rt.AdversaryCount() }

// SetRobust installs (or, with a zero config, removes) the robust-merge
// countermeasures on every hosted node of the live system. Each node's
// trim acceptance band seeds from the honest population's current
// spread, so install countermeasures after SetAdversaries, not before.
// A single TCP node gates what its remote peers report.
func (s *System) SetRobust(cfg RobustConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	s.rt.SetRobust(cfg.policy())
	return nil
}

// RobustRejected returns the cumulative number of exchange halves the
// robust trim gate has rejected across all hosted nodes.
func (s *System) RobustRejected() uint64 { return s.rt.RobustRejected() }

// SetLoss sets the message-loss probability of an in-memory system,
// live: from then on each message between two nodes is dropped
// independently with probability p (experiment E6's loss model,
// injectable at runtime; 0 turns it off), and every drop is counted in
// repro_transport_fabric_loss_dropped_total. Errors on the TCP shapes,
// where the network is real and not simulated.
func (s *System) SetLoss(p float64) error { return s.rt.SetLoss(p) }

// Metrics returns the system's metric registry so module-local layers
// (the serve package) can register their own series into the same
// /metrics exposition. The registry accepts registrations at any time.
func (s *System) Metrics() *metrics.Registry { return s.metrics }

// SetServeStats installs the service layer's stream-count and
// drop-total readers, stamped into Telemetry snapshots as ServeStreams
// and ServeDropped. Pass nil to detach.
func (s *System) SetServeStats(fn func() (streams int, dropped uint64)) {
	if fn == nil {
		s.serveStats.Store(nil)
		return
	}
	s.serveStats.Store(&fn)
}

// Close stops the system (idempotently): live Watch channels close,
// nodes stop and endpoints shut down.
func (s *System) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		if s.ops != nil {
			s.ops.stop()
		}
		s.rt.Stop()
	})
}
