package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/robust"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/xrand"
)

// RuntimeMode selects how a cluster's nodes are scheduled.
type RuntimeMode uint8

const (
	// ModeGoroutine is the legacy runtime: one active goroutine and
	// one dispatcher goroutine per node. Simple and maximally
	// asynchronous, but two goroutines, a timer and a channel-backed
	// inbox per node stop scaling around 10⁴ nodes per process. It
	// remains the zero value at this layer for compatibility; the
	// public repro.Open front door defaults to ModeHeap.
	ModeGoroutine RuntimeMode = iota
	// ModeHeap multiplexes every local node onto a small worker pool:
	// each worker owns a contiguous shard of nodes, drives their
	// exchange wakes from a per-shard calendar queue and their reply
	// deadlines from a per-shard FIFO ring (the kernel's event-driven
	// scheduling model, at O(1) per timer — see sched.go) and
	// coalesces same-destination messages through a transport.Batcher.
	// One endpoint per worker — nodes are addressed with
	// "endpoint#index" sub-addresses — so a single process sustains
	// 10⁵–10⁶ nodes, and the workers run genuinely in parallel: one
	// goroutine per shard, a round-granular lock per shard, and work
	// stealing between shards (see DESIGN.md, "Concurrency model &
	// shard ownership").
	ModeHeap
)

// String returns the mode name.
func (m RuntimeMode) String() string {
	switch m {
	case ModeGoroutine:
		return "goroutine"
	case ModeHeap:
		return "heap"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// eventBudget returns how many due events one scheduler round of a
// shard with n nodes may fire before serving the inbox again. When a
// shard runs behind schedule (saturation), every node's wake is due at
// once; firing them all in one go would put the whole shard into the
// pending (busy) state simultaneously and nack every push — a
// livelock. Chunking at ≤ 1/8 of the shard keeps only a small fraction
// of nodes in flight at a time, so pushes almost always find a
// serviceable peer, while the floor still amortizes batch frames over
// dozens of messages.
func eventBudget(n int) int {
	return min(1024, max(64, n/8))
}

// RuntimeConfig assembles a heap-mode runtime hosting Size nodes.
type RuntimeConfig struct {
	// Size is the number of hosted nodes (≥ 2).
	Size int
	// Schema defines the gossiped fields (required).
	Schema *core.Schema
	// Value supplies node i's local attribute.
	Value func(i int) float64
	// CycleLength is Δt for every node (required).
	CycleLength time.Duration
	// ReplyTimeout bounds the pull-reply wait (default CycleLength/2).
	ReplyTimeout time.Duration
	// Wait is the waiting-time policy (default ConstantWait).
	Wait WaitPolicy
	// Fabric carries the messages when Endpoints is nil; nil builds a
	// lossless fabric with deep per-worker inboxes.
	Fabric *transport.Fabric
	// Endpoints, when non-nil, supplies one pre-built endpoint per
	// worker (e.g. TCP listeners for a deployable multi-node process)
	// and overrides Fabric. len(Endpoints) fixes the worker count.
	Endpoints []transport.Endpoint
	// PushOnly enables the push-only ablation on every node.
	PushOnly bool
	// InitState, when non-nil, overrides state initialization for node
	// i (e.g. to seed the size-estimation leader).
	InitState func(i int) func(epochID uint64, value float64) core.State
	// Clock, when non-nil, drives epoch restarts on every node.
	Clock *epoch.Clock
	// Samplers, when non-nil, builds node i's membership sampler; self
	// is the node's sub-address and local the full table of hosted-node
	// sub-addresses (shared, read-only) for bootstrapping. Nil uses a
	// shared directory over all hosted nodes — the complete local
	// overlay in O(N) total memory.
	Samplers func(i int, self string, local []string) (membership.Sampler, error)
	// GossipFanout is how many membership addresses to piggyback per
	// message (default 3; negative disables; moot for the directory).
	GossipFanout int
	// Workers is the worker/shard count (default GOMAXPROCS, clamped so
	// every shard owns at least two nodes).
	Workers int
	// BatchWindow bounds how long a coalesced message may wait before
	// the batcher flushes on its own. 0 (the default) flushes once per
	// scheduler round — lowest latency, still batch-framed.
	BatchWindow time.Duration
	// MaxBatch caps messages per batch frame (default 256).
	MaxBatch int
	// Seed makes node randomness reproducible.
	Seed uint64
	// Metrics, when non-nil, registers the runtime's instrumentation
	// (per-shard exchange counters, rounds, steals, inbox depth, shard
	// lag, pool and batcher traffic) as scrape-time readers over the
	// counters the runtime already maintains — attaching a registry
	// adds no work to the exchange hot path.
	Metrics *metrics.Registry
	// TraceSample records every TraceSample-th initiated exchange into
	// a per-shard trace ring (drained via Trace), rounded up to the
	// next power of two so the per-exchange sampling gate is a mask,
	// not a division. 0 — the default — disables tracing; the hot path
	// then pays one predictable branch.
	TraceSample int
	// TraceRing is the per-shard ring capacity (default 256 when
	// sampling is enabled).
	TraceRing int
}

// withDefaults validates and fills defaults.
func (c RuntimeConfig) withDefaults() (RuntimeConfig, error) {
	if c.Size < 2 {
		return c, fmt.Errorf("engine: runtime needs ≥ 2 nodes, got %d", c.Size)
	}
	if c.Schema == nil {
		return c, fmt.Errorf("engine: runtime needs a Schema")
	}
	if c.CycleLength <= 0 {
		return c, fmt.Errorf("engine: CycleLength must be positive, got %v", c.CycleLength)
	}
	if c.Wait == 0 {
		c.Wait = ConstantWait
	}
	if c.Wait != ConstantWait && c.Wait != ExponentialWait {
		return c, fmt.Errorf("engine: unknown wait policy %v", c.Wait)
	}
	if c.ReplyTimeout <= 0 {
		c.ReplyTimeout = c.CycleLength / 2
	}
	if c.Value == nil {
		c.Value = func(int) float64 { return 0 }
	}
	if c.GossipFanout == 0 {
		c.GossipFanout = 3
	}
	if c.GossipFanout < 0 {
		c.GossipFanout = 0
	}
	if len(c.Endpoints) > 0 {
		// Explicit endpoints fix the worker count; the caller already
		// paid for the listeners, so only require one node per shard.
		c.Workers = len(c.Endpoints)
		if c.Workers > c.Size {
			return c, fmt.Errorf("engine: %d endpoints exceed %d nodes (each worker endpoint needs ≥ 1 node)", c.Workers, c.Size)
		}
	} else {
		if c.Workers <= 0 {
			c.Workers = runtime.GOMAXPROCS(0)
		}
		if c.Workers > c.Size/2 {
			c.Workers = max(c.Size/2, 1)
		}
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.TraceSample < 0 {
		c.TraceSample = 0
	}
	if c.TraceSample > 0 {
		// Round the sampling interval up to a power of two: the gate
		// runs twice per exchange, and a mask is ~an order of magnitude
		// cheaper than a 64-bit division on common hardware.
		c.TraceSample = nextPow2(c.TraceSample)
		if c.TraceRing <= 0 {
			c.TraceRing = 256
		}
	}
	return c, nil
}

// Runtime is the heap-mode live runtime: a worker pool multiplexing all
// hosted nodes, per-shard schedules of exchange wakes and reply
// deadlines, and batched transports. Construct with NewRuntime, then
// Start; Stop tears down the workers and endpoints.
type Runtime struct {
	cfg    RuntimeConfig
	schema *core.Schema
	fabric *transport.Fabric // nil when explicit endpoints were supplied
	pool   *fieldsPool       // shared tier of the Fields buffer recycler
	shards []*rshard
	addrs  []string // node i's sub-address, shared by every directory
	nodes  []*Node  // facade handles, one per hosted node

	epochStart time.Time // reference point for the runtime clock
	stop       chan struct{}
	startOnce  sync.Once
	stopOnce   sync.Once
	started    atomic.Bool
	stopped    atomic.Bool
	steals     atomic.Uint64 // rounds run by a non-owner worker

	// failedNodes mirrors the number of currently-failed (crashed,
	// not-yet-revived) hosted nodes for lock-free scraping; maintained
	// by FailNode/ReviveNode under the owning shard's lock.
	failedNodes atomic.Int64
	// advNodes mirrors the number of currently-Byzantine hosted nodes
	// for lock-free scraping; maintained by SetAdversaries under the
	// shard locks.
	advNodes atomic.Int64
}

// rnode is one hosted node's protocol state, guarded by its shard's mu.
type rnode struct {
	state      []float64 // view into the shard's backing column
	value      float64
	tracker    epoch.Tracker
	rng        *xrand.Rand
	sampler    membership.Sampler
	observes   bool // sampler wants Observe/Forget feedback (non-directory)
	initState  func(epochID uint64, value float64) core.State
	failed     bool    // scenario-injected crash: silent until revived
	pendingSeq uint64  // nonzero while an exchange is in flight (the busy flag)
	pendingAt  float64 // when the in-flight exchange's push was sent
	pendingDst int32   // traced peer index (-1 remote); only set while tracing
	// pendingPeer is the in-flight exchange's destination, kept so a
	// missed reply deadline can Forget it (failure detection from
	// traffic); only maintained when the sampler observes.
	pendingPeer string
	// Late-reply absorption state (see rshard.absorbLate): stateVer
	// counts state mutations; lateSeq/lateVer arm the merge of a reply
	// that outlived its deadline.
	stateVer uint64
	lateSeq  uint64
	lateVer  uint64
	// adv is 0 for an honest node, else 1 + the sim.AdversaryBehavior:
	// the node answers exchanges with its (pinned) state but never
	// adopts a merge. Set by SetAdversaries under the shard's mu.
	adv uint8
	// trim is the node's robust-merge acceptance band, live while the
	// shard's robust policy has Trim set (see Runtime.SetRobust).
	trim  robust.TrimState
	stats Stats
}

// failure records one undeliverable batch destination for a sender.
type failure struct {
	to   string
	from string
}

// shardCounters is one shard's slice of the runtime-wide Stats,
// maintained as atomics so observers aggregate them lock-free (see
// Runtime.Stats). Only the owning round-holder writes them (a plain
// Add under the shard's round lock), so the atomicity is purely for
// the cross-goroutine reads. The trailing pad keeps one shard's
// counters from false-sharing a cache line with whatever the allocator
// places after the rshard.
type shardCounters struct {
	initiated      atomic.Uint64
	replies        atomic.Uint64
	timeouts       atomic.Uint64
	lateReplies    atomic.Uint64
	served         atomic.Uint64
	epochSwitches  atomic.Uint64
	staleDropped   atomic.Uint64
	sendErrors     atomic.Uint64
	busyDropped    atomic.Uint64
	peerBusy       atomic.Uint64
	robustRejected atomic.Uint64
	_              [40]byte // pad 11×8 B of counters to two full cache lines
}

// rshard is one worker's slice of the runtime: a contiguous node range,
// an endpoint, a batcher and a schedule (a wake calendar and a deadline
// ring).
//
// Everything under mu is owned by whichever goroutine holds the round
// lock — normally the shard's own worker, occasionally a sibling
// stealing a round (see Runtime.trySteal). The lock is taken once per
// scheduler round, not per message, so the hot path pays one
// uncontended Lock/Unlock per eventBudget of work.
type rshard struct {
	rt     *Runtime
	id     int
	lo, hi int
	ep     transport.Endpoint
	out    *transport.Batcher

	mu        sync.Mutex
	nodes     []rnode
	backing   []float64
	wakes     calendar
	deadlines deadlineRing
	free      localFree // Fields buffer free list, guarded by mu
	seq       uint64

	// In-round local delivery (see send/drainLocal), guarded by mu.
	// selfAddr is the endpoint's address when the endpoint is a real
	// socket and "" otherwise, so the local path is off for fabric-backed
	// shards, whose fabric owns the loss, latency and partition models.
	// local queues the messages hosted nodes addressed to nodes of this
	// same shard; each is handled before the next can be produced, which
	// is what lets a local message's gossip digest live in the shard's
	// digAddrs/digAges scratch instead of message-owned slices.
	// localDelivered counts them (published via pub once per round).
	selfAddr       string
	local          []transport.Message
	digAddrs       []string
	digAges        []uint32
	localDelivered uint64

	// Adversary/robust state, guarded by mu like the nodes it applies
	// to. robustOn caches robust.Enabled() so the per-message gate is
	// one byte load; advGossip/advAges are the shared (read-only)
	// eclipse flooding digest — every adversary address at age 0.
	robust    robust.Policy
	robustOn  bool
	advGossip []string
	advAges   []uint32

	ctr shardCounters

	// trace is the shard's sampled exchange ring (empty when sampling
	// is off); traceEvery caches the power-of-two sampling interval (0
	// off) so the twice-per-exchange gate is a load and a mask;
	// latency, when non-nil, mirrors sampled exchange latencies into a
	// registry histogram.
	trace      traceRing
	traceEvery uint64
	latency    *metrics.Histogram

	// recv counts inbound messages handled; maintained as a plain
	// increment under mu and published to pub once per round, so the
	// per-message cost is an ordinary add, not an atomic.
	recv uint64

	// pub mirrors round-granular counters (rounds run, messages
	// received, pool traffic, free-list occupancy) as atomics for
	// lock-free scraping. Stored once at the end of every round.
	pub struct {
		rounds         atomic.Uint64
		received       atomic.Uint64
		localDelivered atomic.Uint64
		poolGets       atomic.Uint64
		poolPuts       atomic.Uint64
		poolMiss       atomic.Uint64
		poolFree       atomic.Int64
	}

	// nextDue is the float64 bit pattern of the shard's earliest
	// scheduled timer (+Inf when none is), published at
	// the end of every round so idle siblings can spot a shard that has
	// fallen behind schedule without touching its lock.
	nextDue atomic.Uint64

	failMu   sync.Mutex
	failures []failure

	done chan struct{}
}

// publishNextDue records the shard's earliest pending event time for
// the benefit of would-be stealers.
func (s *rshard) publishNextDue(at float64) { s.nextDue.Store(math.Float64bits(at)) }

// loadNextDue returns the shard's last published earliest event time.
func (s *rshard) loadNextDue() float64 { return math.Float64frombits(s.nextDue.Load()) }

// earliest returns the time of the shard's next timer, wake or reply
// deadline (+Inf when none is scheduled). Caller holds s.mu.
func (s *rshard) earliest() float64 { return min(s.wakes.next(), s.deadlines.next()) }

// NewRuntime builds (but does not start) a heap-mode runtime.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		cfg:    cfg,
		schema: cfg.Schema,
		pool:   newFieldsPool(cfg.Schema.Len()),
		stop:   make(chan struct{}),
	}
	endpoints := cfg.Endpoints
	if endpoints == nil {
		rt.fabric = cfg.Fabric
		if rt.fabric == nil {
			rt.fabric = transport.NewFabric(
				transport.WithSeed(cfg.Seed),
				transport.WithInboxSize(1<<14),
			)
		}
		endpoints = make([]transport.Endpoint, cfg.Workers)
		for w := range endpoints {
			endpoints[w] = rt.fabric.NewEndpoint()
		}
	}

	// Contiguous equal split: the first rem shards get one extra node.
	base, rem := cfg.Size/cfg.Workers, cfg.Size%cfg.Workers
	rt.addrs = make([]string, cfg.Size)
	rt.nodes = make([]*Node, cfg.Size)
	rt.shards = make([]*rshard, cfg.Workers)
	fieldN := cfg.Schema.Len()
	startEpoch := uint64(0)
	if cfg.Clock != nil {
		startEpoch = cfg.Clock.Current(time.Now())
	}
	lo := 0
	for w := range cfg.Workers {
		hi := lo + base
		if w < rem {
			hi++
		}
		s := &rshard{
			rt:        rt,
			id:        w,
			lo:        lo,
			hi:        hi,
			ep:        endpoints[w],
			nodes:     make([]rnode, hi-lo),
			backing:   make([]float64, (hi-lo)*fieldN),
			wakes:     newCalendar(hi-lo, cfg.CycleLength.Seconds()),
			deadlines: newDeadlineRing(hi - lo),
			free:      newLocalFree(rt.pool, hi-lo),
			done:      make(chan struct{}),
		}
		if _, socket := endpoints[w].(*transport.TCPEndpoint); socket {
			s.selfAddr = endpoints[w].Addr()
		}
		if cfg.TraceSample > 0 {
			s.trace.recs = make([]TraceRecord, cfg.TraceRing)
			s.traceEvery = uint64(cfg.TraceSample)
		}
		s.out = transport.NewBatcher(endpoints[w],
			transport.WithBatchWindow(cfg.BatchWindow),
			transport.WithMaxBatch(cfg.MaxBatch),
			transport.WithSendErrorHandler(s.noteFailures),
		)
		for i := lo; i < hi; i++ {
			rt.addrs[i] = transport.SubAddr(endpoints[w].Addr(), i)
		}
		rt.shards[w] = s
		lo = hi
	}

	for _, s := range rt.shards {
		for i := s.lo; i < s.hi; i++ {
			n := &s.nodes[i-s.lo]
			n.value = cfg.Value(i)
			n.rng = xrand.New(cfg.Seed + uint64(i)*0x9e3779b97f4a7c15)
			n.tracker = epoch.NewTracker(startEpoch)
			if cfg.InitState != nil {
				n.initState = cfg.InitState(i)
			}
			if cfg.Samplers != nil {
				sampler, err := cfg.Samplers(i, rt.addrs[i], rt.addrs)
				if err != nil {
					return nil, fmt.Errorf("engine: sampler for node %d: %w", i, err)
				}
				n.sampler = sampler
				_, isDir := sampler.(*membership.Directory)
				n.observes = !isDir
			} else {
				sampler, err := membership.NewDirectory(rt.addrs, i)
				if err != nil {
					return nil, fmt.Errorf("engine: directory for node %d: %w", i, err)
				}
				n.sampler = sampler
			}
			n.state = s.backing[(i-s.lo)*fieldN : (i-s.lo+1)*fieldN]
			copy(n.state, rt.initStateFor(n, startEpoch))
			rt.nodes[i] = &Node{hrt: rt, hidx: i}
		}
	}
	rt.registerMetrics(cfg.Metrics)
	return rt, nil
}

// registerMetrics exposes the runtime through a registry. Every series
// is a scrape-time reader over state the runtime maintains anyway
// (shardCounters, published round mirrors, channel lengths), so the
// exchange hot path is identical with and without a registry; only the
// sampled-exchange latency histogram is an owned instrument, and it is
// written solely on the trace-sampling lattice. No-op on nil.
func (rt *Runtime) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("repro_engine_nodes", "Hosted nodes.",
		func() float64 { return float64(len(rt.addrs)) })
	reg.GaugeFunc("repro_engine_workers", "Shard workers.",
		func() float64 { return float64(len(rt.shards)) })
	reg.GaugeFunc("repro_engine_failed_nodes", "Hosted nodes currently failed by scenario injection.",
		func() float64 { return float64(rt.failedNodes.Load()) })
	reg.GaugeFunc("repro_adversary_nodes", "Hosted nodes currently acting as Byzantine adversaries.",
		func() float64 { return float64(rt.advNodes.Load()) })
	reg.CounterFunc("repro_engine_rounds_stolen_total",
		"Scheduler rounds run by a non-owner worker.", rt.steals.Load)
	for _, s := range rt.shards {
		s := s
		lbl := metrics.Label{Key: "shard", Value: strconv.Itoa(s.id)}
		for _, c := range []struct {
			name, help string
			v          *atomic.Uint64
		}{
			{"repro_engine_exchanges_initiated_total", "Exchanges started by hosted nodes.", &s.ctr.initiated},
			{"repro_engine_exchanges_completed_total", "Exchanges whose pull reply was merged.", &s.ctr.replies},
			{"repro_engine_exchange_deadline_missed_total", "Exchanges reaped by the reply deadline.", &s.ctr.timeouts},
			{"repro_engine_late_replies_absorbed_total", "Post-deadline replies still merged to conserve mass.", &s.ctr.lateReplies},
			{"repro_engine_exchanges_nacked_total", "Exchanges declined by a busy peer.", &s.ctr.peerBusy},
			{"repro_engine_pushes_served_total", "Inbound pushes merged and replied to.", &s.ctr.served},
			{"repro_engine_pushes_declined_total", "Inbound pushes nacked while busy.", &s.ctr.busyDropped},
			{"repro_robust_rejected_total", "Exchange halves rejected by the robust trim gate.", &s.ctr.robustRejected},
			{"repro_engine_messages_stale_dropped_total", "Messages dropped for an out-of-sync epoch.", &s.ctr.staleDropped},
			{"repro_engine_epoch_restarts_total", "Node state reinitializations at epoch boundaries.", &s.ctr.epochSwitches},
			{"repro_engine_send_errors_total", "Sends that failed synchronously or via batch feedback.", &s.ctr.sendErrors},
			{"repro_engine_rounds_total", "Scheduler rounds run.", &s.pub.rounds},
			{"repro_engine_messages_received_total", "Inbound messages handled, local deliveries included.", &s.pub.received},
			{"repro_engine_local_delivered_total", "Messages between two nodes of the shard handled in-round, bypassing the socket.", &s.pub.localDelivered},
			{"repro_pool_gets_total", "Fields buffers drawn from the shard free list.", &s.pub.poolGets},
			{"repro_pool_puts_total", "Fields buffers recycled into the shard free list.", &s.pub.poolPuts},
			{"repro_pool_misses_total", "Buffer draws that fell through to the shared pool.", &s.pub.poolMiss},
		} {
			reg.CounterFunc(c.name, c.help, c.v.Load, lbl)
		}
		reg.GaugeFunc("repro_pool_local_free", "Buffers resident in the shard free list.",
			func() float64 { return float64(s.pub.poolFree.Load()) }, lbl)
		reg.GaugeFunc("repro_engine_inbox_depth", "Messages queued in the shard endpoint inbox.",
			func() float64 { return float64(len(s.ep.Inbox())) }, lbl)
		reg.GaugeFunc("repro_engine_shard_lag_seconds",
			"How far the shard's earliest pending event lies behind the runtime clock (0 when ahead or idle).",
			func() float64 {
				lag := rt.now() - s.loadNextDue()
				if lag < 0 || math.IsInf(lag, 0) || math.IsNaN(lag) {
					return 0
				}
				return lag
			}, lbl)
		s.latency = reg.Histogram("repro_engine_exchange_latency_seconds",
			"Initiate-to-resolution latency of trace-sampled exchanges (empty until trace sampling is enabled).",
			nil, lbl)
		reg.CounterFunc("repro_transport_batch_frames_total", "Batch frames flushed to the endpoint.",
			s.out.FramesSent, lbl)
		reg.CounterFunc("repro_transport_batch_messages_total", "Messages carried inside batch frames.",
			s.out.MessagesSent, lbl)
		reg.CounterFunc("repro_transport_send_failures_total", "Messages whose batch delivery failed.",
			s.out.SendFailures, lbl)
		var gossips []*membership.GossipSampler
		for i := range s.nodes {
			if g, ok := s.nodes[i].sampler.(*membership.GossipSampler); ok {
				gossips = append(gossips, g)
			}
		}
		if len(gossips) > 0 {
			// The sampler mirrors are atomics, so scrapes stay lock-free
			// like every other series here.
			gossips := gossips
			reg.GaugeFunc("repro_membership_view_entries",
				"Peer entries across the shard's gossip membership views.",
				func() float64 {
					var t float64
					for _, g := range gossips {
						t += float64(g.ViewSize())
					}
					return t
				}, lbl)
			reg.CounterFunc("repro_membership_observed_total",
				"Messages whose sender and digest fed a membership view.",
				func() uint64 {
					var t uint64
					for _, g := range gossips {
						t += g.ObservedTotal()
					}
					return t
				}, lbl)
			reg.CounterFunc("repro_membership_forgotten_total",
				"Peers dropped from membership views as dead (send failures and missed deadlines).",
				func() uint64 {
					var t uint64
					for _, g := range gossips {
						t += g.ForgottenTotal()
					}
					return t
				}, lbl)
			reg.CounterFunc("repro_membership_digest_dropped_total",
				"Digest entries refused by the per-sender insertion budget (eclipse hardening).",
				func() uint64 {
					var t uint64
					for _, g := range gossips {
						t += g.InsertsDroppedTotal()
					}
					return t
				}, lbl)
		}
		if tcp, ok := s.ep.(*transport.TCPEndpoint); ok {
			reg.CounterFunc("repro_transport_tcp_dials_total", "Outbound TCP connections established.", tcp.Dials, lbl)
			reg.CounterFunc("repro_transport_tcp_bytes_sent_total", "Bytes written to TCP peers.", tcp.BytesSent, lbl)
			reg.CounterFunc("repro_transport_tcp_bytes_received_total", "Bytes read from TCP peers.", tcp.BytesReceived, lbl)
			reg.CounterFunc("repro_transport_tcp_inbox_dropped_total", "Inbound frames dropped on a full inbox.", tcp.InboxDropped, lbl)
		}
	}
	if rt.fabric != nil {
		reg.CounterFunc("repro_transport_fabric_loss_dropped_total",
			"Messages dropped by the fabric loss model or a partition filter.", rt.fabric.LossDropped)
		reg.CounterFunc("repro_transport_fabric_inbox_dropped_total",
			"Messages dropped on a full in-memory inbox.", rt.fabric.InboxDropped)
	}
}

// initStateFor builds a node's state vector for an epoch.
func (rt *Runtime) initStateFor(n *rnode, epochID uint64) core.State {
	if n.initState != nil {
		return n.initState(epochID, n.value)
	}
	return rt.schema.InitState(n.value)
}

// Size returns the number of hosted nodes.
func (rt *Runtime) Size() int { return len(rt.addrs) }

// Workers returns the worker/shard count.
func (rt *Runtime) Workers() int { return len(rt.shards) }

// Nodes returns per-node facade handles in index order. The handles
// support the full Node API (State, Estimate, Epoch, Stats, SetValue);
// Start and Stop act on the whole runtime.
func (rt *Runtime) Nodes() []*Node { return rt.nodes }

// Addr returns node i's sub-address.
func (rt *Runtime) Addr(i int) string { return rt.addrs[i] }

// Fabric returns the runtime-owned in-memory fabric (nil when explicit
// endpoints were supplied).
func (rt *Runtime) Fabric() *transport.Fabric { return rt.fabric }

// now returns seconds since Start on the runtime clock.
func (rt *Runtime) now() float64 {
	return time.Since(rt.epochStart).Seconds()
}

// Start launches the worker pool. Calling Start more than once is a
// no-op. Cancelling ctx stops the runtime exactly as Stop would;
// context.Background() runs until an explicit Stop.
func (rt *Runtime) Start(ctx context.Context) {
	rt.startOnce.Do(func() {
		rt.epochStart = time.Now()
		rt.started.Store(true)
		cycle := rt.cfg.CycleLength.Seconds()
		for _, s := range rt.shards {
			s.mu.Lock()
			for i := s.lo; i < s.hi; i++ {
				// Random initial phase in [0, Δt): desynchronized ticks
				// avoid lockstep collisions (§1.1 autonomy), exactly as
				// the goroutine runtime does.
				phase := s.nodes[i-s.lo].rng.Float64() * cycle
				s.wakes.push(wake{at: phase, node: int32(i)})
			}
			s.publishNextDue(s.earliest())
			s.mu.Unlock()
			go s.run()
		}
		if ctx != nil && ctx.Done() != nil {
			go func() {
				select {
				case <-ctx.Done():
					rt.Stop()
				case <-rt.stop:
				}
			}()
		}
	})
}

// Stop terminates the workers, flushes and closes every endpoint, and
// waits for shutdown. Idempotent and safe to call before Start.
func (rt *Runtime) Stop() {
	rt.stopOnce.Do(func() {
		rt.stopped.Store(true)
		close(rt.stop)
		if rt.started.Load() {
			for _, s := range rt.shards {
				<-s.done
			}
		}
		for _, s := range rt.shards {
			_ = s.out.Close()
		}
	})
}

// shardOf returns the shard owning global node index i.
func (rt *Runtime) shardOf(i int) *rshard {
	w := len(rt.shards)
	n := len(rt.addrs)
	base, rem := n/w, n%w
	cut := rem * (base + 1)
	if i < cut {
		return rt.shards[i/(base+1)]
	}
	return rt.shards[rem+(i-cut)/base]
}

// Snapshot returns every node's current approximation of the named
// field, locking one shard at a time. It materializes an N-length
// slice; hot paths at 10⁵⁺ nodes should fold with ReduceField instead.
func (rt *Runtime) Snapshot(field string) ([]float64, error) {
	idx, err := rt.schema.Index(field)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(rt.addrs))
	for _, s := range rt.shards {
		s.mu.Lock()
		for i := s.lo; i < s.hi; i++ {
			out[i] = s.nodes[i-s.lo].state[idx]
		}
		s.mu.Unlock()
	}
	return out, nil
}

// ReduceField streams every node's current approximation of the named
// field through fn, shard by shard, without materializing a vector —
// the observation primitive for 10⁵–10⁶-node runtimes. fn runs with
// the owning shard locked: it must be fast and must not call back into
// the runtime. Nodes are visited in index order.
func (rt *Runtime) ReduceField(field string, fn func(v float64)) error {
	idx, err := rt.schema.Index(field)
	if err != nil {
		return err
	}
	for _, s := range rt.shards {
		s.mu.Lock()
		for i := range s.nodes {
			if s.nodes[i].failed || s.nodes[i].adv != 0 {
				// Crashed nodes are not part of the live population, and
				// adversaries' pinned columns are exactly the poison the
				// observation layer measures the influence of — folding
				// them in would hide the corruption.
				continue
			}
			fn(s.nodes[i].state[idx])
		}
		s.mu.Unlock()
	}
	return nil
}

// ReduceValues streams every node's local input value (the attribute
// the aggregate is computed over) through fn, shard by shard. Same
// contract as ReduceField: fn runs with the owning shard locked. The
// telemetry layer folds this into the live true mean so tracking error
// reflects SetValue drift, not just the values at start.
func (rt *Runtime) ReduceValues(fn func(v float64)) {
	for _, s := range rt.shards {
		s.mu.Lock()
		for i := range s.nodes {
			if s.nodes[i].failed || s.nodes[i].adv != 0 {
				continue
			}
			fn(s.nodes[i].value)
		}
		s.mu.Unlock()
	}
}

// NodeState returns a copy of node i's state vector.
func (rt *Runtime) NodeState(i int) core.State {
	s := rt.shardOf(i)
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(core.State, len(s.nodes[i-s.lo].state))
	copy(out, s.nodes[i-s.lo].state)
	return out
}

// NodeEpoch returns node i's current epoch identifier.
func (rt *Runtime) NodeEpoch(i int) uint64 {
	s := rt.shardOf(i)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodes[i-s.lo].tracker.Current()
}

// NodeStats returns a snapshot of node i's counters.
func (rt *Runtime) NodeStats(i int) Stats {
	s := rt.shardOf(i)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodes[i-s.lo].stats
}

// SetValue updates node i's local attribute (visible at the next epoch
// restart, §4 adaptivity).
func (rt *Runtime) SetValue(i int, v float64) {
	s := rt.shardOf(i)
	s.mu.Lock()
	s.nodes[i-s.lo].value = v
	s.mu.Unlock()
}

// injectWait bounds how long InjectValue spins for a node's in-flight
// exchange to resolve before force-applying the delta anyway. The
// pending window is normally microseconds (one fabric delivery), so the
// bound only bites when the sampled peer is dead and the exchange must
// burn its full reply timeout.
const injectWait = 10 * time.Millisecond

// InjectValue updates node i's local attribute to v and folds the
// difference into its current approximation of field idx, so the new
// value enters the aggregate immediately rather than at the next epoch
// restart — the dynamic-signals feed behind System.SetValue.
//
// The delta apply is only mass-conserving while no exchange is in
// flight on the node: a push-then-mutate-then-merge interleaving loses
// δ/2 of the injected mass (§3.2's atomicity argument). InjectValue
// therefore waits (bounded by injectWait) for pendingSeq to clear
// before applying; the stateVer bump also invalidates any armed
// late-reply absorption, which would no longer commute with the
// injection. Shard-local: one lock acquisition per attempt, no
// allocations.
func (rt *Runtime) InjectValue(i, idx int, v float64) {
	s := rt.shardOf(i)
	deadline := time.Now().Add(injectWait)
	for {
		s.mu.Lock()
		n := &s.nodes[i-s.lo]
		if n.pendingSeq == 0 || n.failed || !time.Now().Before(deadline) {
			delta := v - n.value
			n.value = v
			if !n.failed {
				n.state[idx] += delta
				n.stateVer++
			}
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		time.Sleep(50 * time.Microsecond)
	}
}

// FailNode silently crashes hosted node i: it stops initiating, drops
// all inbound traffic, and leaves every reduce (peers observe only a
// missing reply and time out). Reports whether the call changed the
// node's status. The node's share of the aggregate mass dies with it,
// exactly as in the paper's crash model (§3.2): already-merged
// contributions persist in surviving nodes' states.
func (rt *Runtime) FailNode(i int) bool {
	s := rt.shardOf(i)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := &s.nodes[i-s.lo]
	if n.failed {
		return false
	}
	n.failed = true
	// Retire any in-flight exchange: its deadline and reply become
	// no-ops, and no late absorption may fire into a dead node.
	n.pendingSeq = 0
	n.lateSeq = 0
	rt.failedNodes.Add(1)
	return true
}

// ReviveNode brings a failed node back as a fresh joiner: its state is
// reinitialized from its current local value (stale pre-crash mass is
// discarded) and it resumes initiating on its existing wake cadence.
// Reports whether the call changed the node's status.
func (rt *Runtime) ReviveNode(i int) bool {
	s := rt.shardOf(i)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := &s.nodes[i-s.lo]
	if !n.failed {
		return false
	}
	n.failed = false
	copy(n.state, rt.initStateFor(n, n.tracker.Current()))
	n.stateVer++
	rt.failedNodes.Add(-1)
	return true
}

// FailedNodes returns how many hosted nodes are currently failed.
func (rt *Runtime) FailedNodes() int { return int(rt.failedNodes.Load()) }

// SetAdversaries marks hosted nodes as Byzantine with the given
// behavior, mirroring the kernel's semantics (sim.Kernel.SetAdversaries):
// extreme-value adversaries pin their local value to magnitude,
// colluding and eclipse adversaries to target, selective droppers keep
// their honestly drawn value — and none of them ever adopts a merge.
// Eclipse adversaries additionally answer every exchange with a
// membership digest listing only adversary addresses at age 0, so
// gossip-sampled victims' views are captured. Passing no nodes clears
// the axis. Safe to call on a running runtime (live injection): each
// shard is updated under its round lock.
func (rt *Runtime) SetAdversaries(behavior sim.AdversaryBehavior, nodes []int, magnitude, target float64) error {
	for _, i := range nodes {
		if i < 0 || i >= len(rt.addrs) {
			return fmt.Errorf("engine: adversary node %d out of range [0,%d)", i, len(rt.addrs))
		}
	}
	mark := make([]bool, len(rt.addrs))
	count := 0
	for _, i := range nodes {
		if !mark[i] {
			mark[i] = true
			count++
		}
	}
	if count > 0 && len(rt.addrs)-count < 2 {
		return fmt.Errorf("engine: %d adversaries leave fewer than two honest nodes (n=%d)", count, len(rt.addrs))
	}
	var gossip []string
	var ages []uint32
	if count > 0 && behavior == sim.AdvEclipse {
		gossip = make([]string, 0, count)
		for i, m := range mark {
			if m {
				gossip = append(gossip, rt.addrs[i])
			}
		}
		ages = make([]uint32, len(gossip))
	}
	for _, s := range rt.shards {
		s.mu.Lock()
		s.advGossip, s.advAges = gossip, ages
		for i := s.lo; i < s.hi; i++ {
			n := &s.nodes[i-s.lo]
			n.adv = 0
			if !mark[i] {
				continue
			}
			n.adv = 1 + uint8(behavior)
			switch behavior {
			case sim.AdvExtreme:
				n.value = magnitude
			case sim.AdvColluding, sim.AdvEclipse:
				n.value = target
			}
			if behavior != sim.AdvSelectiveDrop {
				copy(n.state, rt.initStateFor(n, n.tracker.Current()))
				n.stateVer++
			}
		}
		s.mu.Unlock()
	}
	rt.advNodes.Store(int64(count))
	return nil
}

// AdversaryCount returns how many hosted nodes are currently Byzantine.
func (rt *Runtime) AdversaryCount() int { return int(rt.advNodes.Load()) }

// SetRobust installs the robust-merge countermeasures on every hosted
// node (a zero policy disables them). When trimming is enabled, each
// node's acceptance band is seeded from the honest population's current
// primary-field spread — center 0, scale max(σ, ε) — exactly as the
// kernel does, so an adversary gets no free warmup window. Call after
// SetAdversaries; safe on a running runtime.
func (rt *Runtime) SetRobust(p robust.Policy) {
	if p.Trim && p.TrimK <= 0 {
		p.TrimK = 8
	}
	var seed robust.TrimState
	if p.Enabled() && p.Trim {
		var run stats.Running
		for _, s := range rt.shards {
			s.mu.Lock()
			for i := range s.nodes {
				n := &s.nodes[i]
				if n.adv == 0 && !n.failed {
					run.Add(n.state[0])
				}
			}
			s.mu.Unlock()
		}
		scale := run.StdDev()
		if scale < 1e-12 {
			scale = 1e-12
		}
		seed = robust.TrimState{Center: 0, Scale: scale}
	}
	for _, s := range rt.shards {
		s.mu.Lock()
		if p.Enabled() {
			s.robust, s.robustOn = p, true
		} else {
			s.robust, s.robustOn = robust.Policy{}, false
		}
		for i := range s.nodes {
			s.nodes[i].trim = seed
		}
		s.mu.Unlock()
	}
}

// RobustRejected returns how many exchange halves the robust trim gate
// has rejected (cumulative across the runtime's lifetime, like every
// other counter).
func (rt *Runtime) RobustRejected() uint64 {
	var t uint64
	for _, s := range rt.shards {
		t += s.ctr.robustRejected.Load()
	}
	return t
}

// Stats returns the element-wise sum of every hosted node's counters.
// The fold reads the per-shard atomic counter blocks — O(workers), no
// locks — so Watch-style polling never stalls the workers it measures.
// Counters within one shard are read without a snapshot barrier, so a
// momentarily in-progress exchange may show as initiated but not yet
// replied; every counter is individually exact.
func (rt *Runtime) Stats() Stats {
	var agg Stats
	for _, s := range rt.shards {
		agg.Initiated += s.ctr.initiated.Load()
		agg.Replies += s.ctr.replies.Load()
		agg.Timeouts += s.ctr.timeouts.Load()
		agg.LateReplies += s.ctr.lateReplies.Load()
		agg.Served += s.ctr.served.Load()
		agg.EpochSwitches += s.ctr.epochSwitches.Load()
		agg.StaleDropped += s.ctr.staleDropped.Load()
		agg.SendErrors += s.ctr.sendErrors.Load()
		agg.BusyDropped += s.ctr.busyDropped.Load()
		agg.PeerBusy += s.ctr.peerBusy.Load()
	}
	return agg
}

// ShardInitiated returns each shard's initiated-exchange counter in
// shard order — the per-worker balance view (lock-free, like Stats).
func (rt *Runtime) ShardInitiated() []uint64 {
	out := make([]uint64, len(rt.shards))
	for i, s := range rt.shards {
		out[i] = s.ctr.initiated.Load()
	}
	return out
}

// nodeIndex parses the node index out of a sub-address ("ep#17" → 17).
func nodeIndex(addr string) (int, bool) {
	h := strings.IndexByte(addr, '#')
	if h < 0 {
		return 0, false
	}
	idx, err := strconv.Atoi(addr[h+1:])
	if err != nil || idx < 0 {
		return 0, false
	}
	return idx, true
}

// noteFailures records a failed batch destination; the worker applies
// the feedback (SendErrors, sampler Forget) at its next round. Deferred
// because the batcher may invoke this while the worker holds mu. Each
// message's own To (the full sub-address the sampler handed out) is
// recorded, not the batch's base address — Forget must match what
// Sample returned.
func (s *rshard) noteFailures(to string, ms []transport.Message, err error) {
	s.failMu.Lock()
	for _, m := range ms {
		dest := m.To
		if dest == "" {
			dest = to
		}
		s.failures = append(s.failures, failure{to: dest, from: m.From})
	}
	s.failMu.Unlock()
}

// applyFailuresLocked charges recorded send failures to their sender
// nodes. The caller holds s.mu.
func (s *rshard) applyFailuresLocked() {
	s.failMu.Lock()
	fails := s.failures
	s.failures = nil
	s.failMu.Unlock()
	for _, f := range fails {
		idx, ok := nodeIndex(f.from)
		if !ok || idx < s.lo || idx >= s.hi {
			continue
		}
		n := &s.nodes[idx-s.lo]
		n.stats.SendErrors++
		s.ctr.sendErrors.Add(1)
		if n.observes {
			n.sampler.Forget(f.to)
		}
		// If the failed message was the in-flight exchange's push, the
		// reply timeout reaps it; nothing more to do here.
	}
}

// run is the worker loop: run one scheduler round (drain inbound
// messages, fire due events — one lock acquisition for the whole
// round), flush coalesced sends, then sleep until the next deadline or
// message. An idle worker first offers a round of help to the most
// behind sibling shard (work stealing) before sleeping.
func (s *rshard) run() {
	defer close(s.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	inbox := s.ep.Inbox()
	for {
		s.mu.Lock()
		s.applyFailuresLocked()
		sleep, ok := s.roundLocked(inbox)
		s.mu.Unlock()
		if !ok {
			return
		}
		// With no batch window, everything generated this round leaves
		// as batch frames now; with one, the batcher's own timer (or
		// the size cap) flushes, trading up to BatchWindow of latency
		// for coalescing across scheduler rounds.
		if s.rt.cfg.BatchWindow == 0 {
			s.out.Flush()
		}
		if sleep <= 0 {
			// Behind schedule: keep processing without sleeping, but
			// yield so inbound deliveries and other workers progress.
			select {
			case <-s.rt.stop:
				return
			default:
			}
			continue
		}
		// Idle until the next deadline. Spend the slack helping a shard
		// that has fallen behind schedule, if there is one.
		if s.rt.trySteal(s.id) {
			continue
		}
		timer.Reset(sleep)
		select {
		case <-s.rt.stop:
			return
		case m, ok := <-inbox:
			if !ok {
				return
			}
			s.mu.Lock()
			s.handleMessage(m)
			s.drainLocal()
			s.mu.Unlock()
		case <-timer.C:
		}
	}
}

// roundLocked runs one scheduler round: drain queued inbound messages
// (bounded, so observers are never locked out for a full inbox), fire
// due timers up to the event budget — wakes and reply deadlines merged
// in time order, a deadline first on a tie — and publish the shard's
// next due time. Whatever an event or inbound message sends to a node of
// this same socket-backed shard is delivered right behind it
// (drainLocal) and charged to the same budget, so a round never holds
// the lock for more handled messages than it could before. The caller
// holds s.mu. It returns how long the shard may sleep before its next
// event (≤ 0 when it should run again immediately) and ok=false when
// the inbox has been closed.
func (s *rshard) roundLocked(inbox <-chan transport.Message) (sleep time.Duration, ok bool) {
	budget := eventBudget(s.hi - s.lo)
	drained := 0
drain:
	for drained < 4*budget {
		select {
		case m, mok := <-inbox:
			if !mok {
				return 0, false
			}
			s.handleMessage(m)
			drained += 1 + s.drainLocal()
		default:
			break drain
		}
	}
	now := s.rt.now()
	for fired := 0; fired < budget; fired++ {
		if d := s.deadlines.next(); d <= now && d <= s.wakes.next() {
			s.handleDeadline(s.deadlines.pop(), now)
		} else if s.wakes.next() <= now {
			s.handleWake(s.wakes.pop(), now)
		} else {
			break
		}
		fired += s.drainLocal()
	}
	next := s.earliest()
	s.publishNextDue(next)
	sleep = time.Hour
	if !math.IsInf(next, 1) {
		sleep = time.Duration((next - s.rt.now()) * float64(time.Second))
	}
	if drained >= 4*budget {
		sleep = 0 // inbox may still hold messages; come straight back
	}
	// Publish the round-granular counter mirrors: seven stores per round,
	// amortized over the whole event budget, keep scrapes lock-free.
	s.pub.rounds.Add(1)
	s.pub.received.Store(s.recv)
	s.pub.localDelivered.Store(s.localDelivered)
	s.pub.poolGets.Store(s.free.gets)
	s.pub.poolPuts.Store(s.free.puts)
	s.pub.poolMiss.Store(s.free.misses)
	s.pub.poolFree.Store(int64(len(s.free.free)))
	return sleep, true
}

// stealLagFraction is how far behind schedule (as a fraction of the
// cycle length Δt) a shard's earliest event must be before an idle
// sibling steals a round for it. Small enough that help arrives well
// within a cycle, large enough that ordinary scheduling jitter never
// triggers cross-shard lock traffic.
const stealLagFraction = 0.25

// trySteal lets an idle worker run one scheduler round for the most
// behind sibling shard. Shard state stays single-writer per round: the
// stealer takes the victim's round lock (TryLock — if the owner is
// mid-round, help isn't needed), so owner and stealer alternate whole
// rounds rather than interleaving. The win is for skewed load (e.g.
// scalefree hubs concentrated in one shard): an otherwise idle core
// runs the hub shard's rounds and flushes its batches while the owner
// is descheduled or busy flushing. Reports whether a round was stolen.
func (rt *Runtime) trySteal(self int) bool {
	if len(rt.shards) < 2 {
		return false
	}
	now := rt.now()
	worst := stealLagFraction * rt.cfg.CycleLength.Seconds()
	var victim *rshard
	for _, s := range rt.shards {
		if s.id == self {
			continue
		}
		if behind := now - s.loadNextDue(); behind > worst {
			worst, victim = behind, s
		}
	}
	if victim == nil {
		return false
	}
	return victim.stealRound()
}

// stealRound runs one round on s from a non-owner goroutine.
func (s *rshard) stealRound() bool {
	if !s.mu.TryLock() {
		return false
	}
	s.applyFailuresLocked()
	_, ok := s.roundLocked(s.ep.Inbox())
	s.mu.Unlock()
	if !ok {
		return false // inbox closed; the owner handles shutdown
	}
	s.rt.steals.Add(1)
	if s.rt.cfg.BatchWindow == 0 {
		s.out.Flush()
	}
	return true
}

// Steals reports how many scheduler rounds were run by a worker other
// than the shard's owner (work stealing under skewed load).
func (rt *Runtime) Steals() uint64 { return rt.steals.Load() }

// handleDeadline reaps the exchange whose reply deadline d fell due —
// unless it already resolved, which leaves d a dead entry that costs one
// pop. Caller holds s.mu.
func (s *rshard) handleDeadline(d deadline, now float64) {
	idx := int(d.node)
	n := &s.nodes[idx-s.lo]
	if n.pendingSeq != d.seq {
		return
	}
	n.pendingSeq = 0
	n.stats.Timeouts++
	s.ctr.timeouts.Add(1)
	if n.observes && n.pendingPeer != "" {
		// Failure detection from traffic: a missed deadline drops the
		// peer from the view. A live-but-slow peer re-enters the moment
		// its next message is observed.
		n.sampler.Forget(n.pendingPeer)
	}
	// The peer may have committed its half of the merge; arm absorption
	// so a merely-late reply still conserves mass (see absorbLate).
	n.lateSeq, n.lateVer = d.seq, n.stateVer
	if s.traceSampled(d.seq) {
		s.recordTrace(n, idx, d.seq, TraceTimedOut, now)
	}
}

// handleWake runs node w.node's scheduled exchange initiation and
// re-arms its next wake. Caller holds s.mu.
func (s *rshard) handleWake(w wake, now float64) {
	idx := int(w.node)
	n := &s.nodes[idx-s.lo]
	if n.failed {
		// A crashed node keeps its wake cadence ticking (so a revive
		// resumes seamlessly) but is otherwise silent: no epoch
		// observation, no view aging, no initiation.
		wait := s.waitSeconds(n)
		at := w.at + wait
		if at <= now {
			at += math.Floor((now-at)/wait+1) * wait
		}
		s.wakes.push(wake{at: at, node: w.node})
		return
	}
	s.checkClock(n)
	if n.observes {
		// One gossip round per wake: view entries age per cycle, not per
		// message, so lifetimes are independent of traffic rate.
		n.sampler.Tick()
	}
	wait := s.waitSeconds(n)
	at := w.at + wait
	if n.pendingSeq == 0 {
		s.initiate(n, idx, now)
	} else if at <= now {
		// A wake that finds an exchange still in flight initiates
		// nothing: the goroutine runtime blocks its active loop until
		// reply-or-timeout, and reaping the exchange here instead would
		// drop a reply whose passive side already merged — an asymmetric
		// merge that leaks aggregate mass. The reply deadline is the only
		// reaper. A backlogged no-op wake skips ahead to its first slot
		// past real time: when the shard runs L behind schedule,
		// re-pushing at w.at+Δt would be a treadmill — N·L/Δt no-op wakes
		// ground through in stale virtual time before the due deadlines
		// behind them ever surface, wedging every node in pending. The
		// skip must preserve the node's phase (whole multiples of its
		// wait, not a clamp to now): clamping re-pins every backlogged
		// node to the same instant, and a constant-wait shard whose
		// phases collapse livelocks — every node initiates in the same
		// round and busy-nacks every push forever after.
		at += math.Floor((now-at)/wait+1) * wait
	}
	s.wakes.push(wake{at: at, node: w.node})
}

// waitSeconds draws one inter-exchange waiting time in seconds.
func (s *rshard) waitSeconds(n *rnode) float64 {
	cycle := s.rt.cfg.CycleLength.Seconds()
	if s.rt.cfg.Wait == ExponentialWait {
		return n.rng.ExpFloat64() * cycle
	}
	return cycle
}

// checkClock performs the node's own scheduled epoch restart.
func (s *rshard) checkClock(n *rnode) {
	if s.rt.cfg.Clock == nil {
		return
	}
	if n.tracker.Observe(s.rt.cfg.Clock.Current(time.Now())) {
		s.restart(n)
	}
}

// restart reinitializes a node's state for its (already advanced)
// current epoch. Caller holds s.mu.
func (s *rshard) restart(n *rnode) {
	copy(n.state, s.rt.initStateFor(n, n.tracker.Current()))
	n.stateVer++
	n.stats.EpochSwitches++
	s.ctr.epochSwitches.Add(1)
}

// initiate performs the active half of one exchange: sample a peer,
// send the push, arm the reply deadline. Caller holds s.mu and has
// checked that no exchange is in flight. The push's Fields buffer is
// drawn from the shard's free list; ownership passes to the transport
// with the send (and on a lossless fabric, or the local path, the same
// buffer eventually returns via the pull reply).
func (s *rshard) initiate(n *rnode, idx int, now float64) {
	self := s.rt.addrs[idx]
	peer, ok := n.sampler.Sample(n.rng)
	if !ok || peer == self {
		return
	}
	local := s.isLocal(peer)
	fields := s.free.get()
	copy(fields, n.state)
	s.seq++
	msg := transport.Message{
		Kind:   transport.KindPush,
		Epoch:  n.tracker.Current(),
		Seq:    s.seq,
		From:   self,
		Fields: fields,
	}
	if n.adv == 1+uint8(sim.AdvEclipse) {
		// Eclipse push: flood the victim's view with adversary
		// addresses at age 0 (the shared digest is immutable, so the
		// receiver-must-not-retain contract is moot).
		msg.Gossip, msg.GossipAges = s.advGossip, s.advAges
	} else {
		msg.Gossip, msg.GossipAges = s.digest(n, local)
	}
	n.stats.Initiated++
	s.ctr.initiated.Add(1)
	if !s.rt.cfg.PushOnly {
		n.pendingSeq = s.seq
		n.pendingAt = now
		n.lateSeq = 0 // a new exchange supersedes any absorbable late reply
		if n.observes {
			n.pendingPeer = peer
		}
		if s.traceSampled(s.seq) {
			// The peer index is parsed only on the sampling lattice; with
			// tracing off initiate does no extra work beyond two stores.
			n.pendingDst = -1
			if di, ok := nodeIndex(peer); ok {
				n.pendingDst = int32(di)
			}
		}
		// now is the round's reading of the monotonic runtime clock, so
		// deadlines are armed in the order they fall due.
		s.deadlines.push(deadline{
			at:   now + s.rt.cfg.ReplyTimeout.Seconds(),
			seq:  s.seq,
			node: int32(idx),
		})
	}
	s.send(n, peer, msg, local)
}

// isLocal reports whether to names a node hosted by this very shard
// behind a real socket — the traffic that is delivered in-round instead
// of being written to, and read back from, the shard's own listen
// address. Always false on fabric-backed shards (selfAddr is empty).
func (s *rshard) isLocal(to string) bool {
	return s.selfAddr != "" && transport.BaseAddr(to) == s.selfAddr
}

// digest draws node n's piggybacked membership digest for one outgoing
// message (nil when the node's sampler does not gossip). A message that
// leaves through the batcher must own its digest slices: the batcher
// retains it until flush and the fabric delivers by reference (DESIGN.md
// "Membership"). A local message is consumed — Observe runs first in
// handleMessage and retains nothing — before the shard builds its next
// one, so its digest lives in shard-owned scratch and costs nothing.
func (s *rshard) digest(n *rnode, local bool) ([]string, []uint32) {
	if s.rt.cfg.GossipFanout <= 0 || !n.observes {
		return nil, nil
	}
	if !local {
		return n.sampler.AppendDigest(nil, nil, n.rng, s.rt.cfg.GossipFanout)
	}
	s.digAddrs, s.digAges = n.sampler.AppendDigest(s.digAddrs[:0], s.digAges[:0], n.rng, s.rt.cfg.GossipFanout)
	return s.digAddrs, s.digAges
}

// send routes one protocol message from hosted node n; local is
// s.isLocal(to), which the caller already needed for the digest. A
// local message is queued for drainLocal — no codec, syscall, channel
// or batcher — and everything else takes the batcher to the endpoint,
// with a synchronous failure charged to the sender. Caller holds s.mu.
func (s *rshard) send(n *rnode, to string, m transport.Message, local bool) {
	if local {
		m.To = to
		s.local = append(s.local, m)
		return
	}
	if err := s.out.Send(to, m); err != nil {
		n.stats.SendErrors++
		s.ctr.sendErrors.Add(1)
	}
}

// drainLocal handles the queued local messages, and the ones handling
// them queues, through the same handleMessage a socket delivery takes;
// it returns how many it delivered so the round can charge them to its
// budget. A handled push queues at most a reply or a nack and those
// queue nothing, so the chain behind one event is at most two messages
// and the queue never holds more than one undelivered — a local
// exchange starts and completes inside one hold of the round lock,
// atomic as Figure 1 has it, and never finds its partner busy with
// another local exchange. Caller holds s.mu.
func (s *rshard) drainLocal() int {
	delivered := 0
	for ; delivered < len(s.local); delivered++ {
		m := s.local[delivered]
		s.local[delivered] = transport.Message{}
		s.handleMessage(m)
	}
	s.local = s.local[:0]
	s.localDelivered += uint64(delivered)
	return delivered
}

// handleMessage routes one inbound message to its hosted node. The
// caller holds s.mu (messages are handled in round-sized batches under
// one lock acquisition, not one acquisition per message). A message
// addressed to the endpoint's bare base address (no '#' sub-address)
// is first-contact traffic from a peer that only knows this process's
// listen address (aggnode -peers host:port); the shard's first node
// serves it, and the reply's From carries that node's full
// sub-address, which bootstraps the remote sampler onto proper
// sub-addresses.
func (s *rshard) handleMessage(m transport.Message) {
	s.recv++
	idx, ok := nodeIndex(m.To)
	if !ok {
		idx = s.lo
	} else if idx < s.lo || idx >= s.hi {
		return // misrouted sub-address; drop
	}
	n := &s.nodes[idx-s.lo]
	if n.failed {
		// A crashed node neither serves nor absorbs: peers see pure
		// silence (their exchanges time out), exactly like a process
		// crash on a real network.
		s.free.put(m.Fields)
		return
	}
	if n.observes && m.From != "" {
		n.sampler.Observe(m.From, m.Gossip, m.GossipAges)
	}
	switch m.Kind {
	case transport.KindPush:
		s.servePush(n, idx, m)
	case transport.KindReply, transport.KindNack:
		s.handleReply(n, idx, m)
	}
}

// servePush implements the passive half (Figure 1, bottom): reply with
// the pre-merge state, then adopt the merge. Caller holds s.mu and owns
// m.Fields (receiver-owns rule); the happy path rewrites that buffer in
// place into the reply payload (MergeExchange), every other path
// recycles it.
func (s *rshard) servePush(n *rnode, idx int, m transport.Message) {
	if !s.rt.cfg.PushOnly && n.pendingSeq != 0 {
		// An own exchange is in flight; merging now would break the
		// atomicity of the elementary step. Decline with a nack, as the
		// goroutine runtime does.
		n.stats.BusyDropped++
		s.ctr.busyDropped.Add(1)
		s.free.put(m.Fields)
		s.send(n, m.From, transport.Message{
			Kind:  transport.KindNack,
			Epoch: n.tracker.Current(),
			Seq:   m.Seq,
			From:  s.rt.addrs[idx],
		}, s.isLocal(m.From))
		return
	}
	if n.tracker.Observe(m.Epoch) {
		s.restart(n)
	} else if !n.tracker.InSync(m.Epoch) {
		n.stats.StaleDropped++
		s.ctr.staleDropped.Add(1)
		s.free.put(m.Fields)
		return
	}
	if len(m.Fields) != len(n.state) {
		s.free.put(m.Fields) // wrong length: put drops it, GC reclaims
		return               // schema mismatch; drop defensively
	}
	if n.adv != 0 {
		// Byzantine responder: answer with the (pinned) state so the
		// initiator faithfully averages the poison in, but never adopt
		// the merge. Eclipse adversaries flood the reply's membership
		// digest with adversary addresses at age 0, capturing
		// gossip-sampled victims' views.
		if s.rt.cfg.PushOnly {
			s.free.put(m.Fields)
			return
		}
		copy(m.Fields, n.state)
		reply := transport.Message{
			Kind:   transport.KindReply,
			Epoch:  n.tracker.Current(),
			Seq:    m.Seq,
			From:   s.rt.addrs[idx],
			Fields: m.Fields,
		}
		if n.adv == 1+uint8(sim.AdvEclipse) {
			reply.Gossip, reply.GossipAges = s.advGossip, s.advAges
		}
		n.stats.Served++
		s.ctr.served.Add(1)
		s.send(n, m.From, reply, s.isLocal(m.From))
		return
	}
	if s.robustOn {
		// Clamp the peer's primary-field report before it can enter the
		// merge, then run the trimmed-merge gate: a rejected exchange is
		// nacked so the initiator keeps its half too — neither side
		// merges and mass is conserved, exactly the kernel's
		// passive-side semantics.
		rep := s.robust.ClampValue(m.Fields[0])
		m.Fields[0] = rep
		if s.robust.Trim && !n.trim.Admit(rep-n.state[0], s.robust.TrimK) {
			s.ctr.robustRejected.Add(1)
			s.free.put(m.Fields)
			if !s.rt.cfg.PushOnly {
				s.send(n, m.From, transport.Message{
					Kind:  transport.KindNack,
					Epoch: n.tracker.Current(),
					Seq:   m.Seq,
					From:  s.rt.addrs[idx],
				}, s.isLocal(m.From))
			}
			return
		}
	}
	if s.rt.cfg.PushOnly {
		// No reply to build: merge in place and retire the buffer.
		s.rt.schema.MergeInto(core.State(n.state), core.State(m.Fields))
		n.stateVer++
		n.stats.Served++
		s.ctr.served.Add(1)
		s.free.put(m.Fields)
		return
	}
	// One pass, zero copies: the state adopts the merge and the inbound
	// push buffer becomes the pre-merge reply payload.
	s.rt.schema.MergeExchange(core.State(n.state), core.State(m.Fields))
	n.stateVer++
	n.stats.Served++
	s.ctr.served.Add(1)
	local := s.isLocal(m.From)
	reply := transport.Message{
		Kind:   transport.KindReply,
		Epoch:  n.tracker.Current(),
		Seq:    m.Seq,
		From:   s.rt.addrs[idx],
		Fields: m.Fields,
	}
	reply.Gossip, reply.GossipAges = s.digest(n, local)
	s.send(n, m.From, reply, local)
}

// handleReply completes (or aborts, on nack) the node's in-flight
// exchange. Caller holds s.mu and owns m.Fields, which is recycled on
// every path once the merge (if any) is done.
func (s *rshard) handleReply(n *rnode, idx int, m transport.Message) {
	defer s.free.put(m.Fields)
	if n.pendingSeq == 0 || m.Seq != n.pendingSeq {
		// The exchange already timed out; the reply may still be
		// absorbable (mass conservation — see absorbLate).
		s.absorbLate(n, m)
		return
	}
	n.pendingSeq = 0
	if m.Kind == transport.KindNack {
		n.stats.PeerBusy++
		s.ctr.peerBusy.Add(1)
		if s.traceSampled(m.Seq) {
			s.recordTrace(n, idx, m.Seq, TraceNacked, s.rt.now())
		}
		return
	}
	if s.traceSampled(m.Seq) {
		s.recordTrace(n, idx, m.Seq, TraceCompleted, s.rt.now())
	}
	if n.tracker.Observe(m.Epoch) {
		s.restart(n)
		// The reply belongs to the new epoch we just joined; merge it.
	} else if !n.tracker.InSync(m.Epoch) {
		n.stats.StaleDropped++
		s.ctr.staleDropped.Add(1)
		return
	}
	if len(m.Fields) != len(n.state) {
		return
	}
	if n.adv != 0 {
		// Byzantine initiator: the exchange completed, but the merge is
		// silently discarded — the node's report stays pinned.
		n.stats.Replies++
		s.ctr.replies.Add(1)
		return
	}
	if s.robustOn {
		rep := s.robust.ClampValue(m.Fields[0])
		m.Fields[0] = rep
		if s.robust.Trim && !n.trim.Admit(rep-n.state[0], s.robust.TrimK) {
			// Active-side reject: the responder already committed its
			// half when it served the push, so only this node's half is
			// dropped — the kernel's initiator-reject semantics.
			s.ctr.robustRejected.Add(1)
			return
		}
	}
	s.rt.schema.MergeInto(core.State(n.state), core.State(m.Fields))
	n.stateVer++
	n.stats.Replies++
	s.ctr.replies.Add(1)
}

// absorbLate merges a pull reply that arrived after its exchange's
// deadline. The passive peer committed its half of the merge when it
// served the push, so dropping the reply would lose (S_A−S_B)/2 of the
// total aggregate mass (§3.2). The merge is only admissible while it
// still commutes with the abandoned exchange: the node's state must be
// untouched since the deadline armed it (stateVer == lateVer) and no
// new exchange may be in flight (pendingSeq 0, lateSeq not
// superseded). Caller holds s.mu; m.Fields is recycled by the caller.
func (s *rshard) absorbLate(n *rnode, m transport.Message) {
	if m.Kind != transport.KindReply || m.Seq == 0 ||
		m.Seq != n.lateSeq || n.stateVer != n.lateVer || n.pendingSeq != 0 {
		return
	}
	n.lateSeq = 0
	if n.tracker.Observe(m.Epoch) {
		s.restart(n)
		// The reply belongs to the new epoch we just joined; merge it.
	} else if !n.tracker.InSync(m.Epoch) {
		n.stats.StaleDropped++
		s.ctr.staleDropped.Add(1)
		return
	}
	if len(m.Fields) != len(n.state) {
		return
	}
	if n.adv != 0 {
		return
	}
	if s.robustOn {
		rep := s.robust.ClampValue(m.Fields[0])
		m.Fields[0] = rep
		if s.robust.Trim && !n.trim.Admit(rep-n.state[0], s.robust.TrimK) {
			s.ctr.robustRejected.Add(1)
			return
		}
	}
	s.rt.schema.MergeInto(core.State(n.state), core.State(m.Fields))
	n.stateVer++
	n.stats.LateReplies++
	s.ctr.lateReplies.Add(1)
}
