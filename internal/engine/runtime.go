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

// RuntimeConfig assembles a runtime hosting Size nodes.
type RuntimeConfig struct {
	// Size is the number of hosted nodes: ≥ 2, or 1 for a single
	// deployable node, which needs explicit Endpoints and Samplers (its
	// peers are all remote).
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
	// sub-addresses (shared, read-only) for bootstrapping. Nil runs the
	// complete overlay over the hosted nodes implicitly: a node draws
	// its partner as one uniform index other than its own — the same
	// draw membership.Directory makes, with no per-node sampler at all.
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
	switch {
	case c.Size == 1 && (len(c.Endpoints) == 0 || c.Samplers == nil):
		return c, fmt.Errorf("engine: a single-node runtime needs explicit Endpoints and Samplers")
	case c.Size < 1:
		return c, fmt.Errorf("engine: runtime needs ≥ 1 node, got %d", c.Size)
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

// Runtime is the live runtime: a worker pool multiplexing all hosted
// nodes. Each worker owns a contiguous shard of nodes and drives their
// exchange wakes and reply deadlines from a per-shard calendar and ring
// (sched.go). Inside the process a node is an integer index: a message
// between two hosted nodes is handled in-round when both live in one
// shard and posted to the sibling shard's mailbox otherwise. Only
// traffic that leaves the process (or crosses an impaired fabric) is
// addressed with "endpoint#index" sub-addresses and coalesced through a
// transport.Batcher onto one endpoint per worker (see DESIGN.md,
// "Concurrency model & shard ownership"). Construct with NewRuntime,
// then Start; Stop tears down the workers and endpoints.
type Runtime struct {
	cfg    RuntimeConfig
	schema *core.Schema
	fabric *transport.Fabric // nil when explicit endpoints were supplied
	pool   *fieldsPool       // shared tier of the Fields buffer recycler
	shards []*rshard
	addrs  []string // node i's sub-address, spelled out only at the transport
	nodes  []*Node  // handles, one per hosted node

	// sockets is set when every worker endpoint is a TCP listener: the
	// network is real, so traffic between hosted nodes always stays in
	// the process (see inProcess).
	sockets bool

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

// rnode is one hosted node's hot line, guarded by its shard's mu: the
// fields the exchange fast path — a wake's initiation, a served push, a
// completed reply, a reaped deadline — reads or writes, packed into
// exactly one 64 B cache line (TestNodeRecordIsOneCacheLine). The rule
// for a new field: it goes here only if that fast path touches it;
// everything else goes in rcold, the parallel array at the same local
// index. The node's state vector is its row of the shard's backing
// column, and its randomness is the shard's stream.
type rnode struct {
	pendingSeq uint64 // nonzero while an exchange is in flight (the busy flag)
	tracker    epoch.Tracker
	// The three counters every exchange bumps; the seven rare ones
	// live in rcold, and NodeStats assembles both.
	initiated, served, replies uint64
	failed                     bool // scenario-injected crash: silent until revived
	observes                   bool // sampler wants Tick/Observe/Forget/digest work (non-directory)
	sampled                    bool // has a membership sampler; false: the implicit complete overlay
	// adv is 0 for an honest node, else 1 + the sim.AdversaryBehavior:
	// the node answers exchanges with its (pinned) state but never
	// adopts a merge. Set by SetAdversaries under the shard's mu.
	adv uint8
	_   [20]byte // pad to one line, so no record straddles two
}

// rcold is the rest of a hosted node's state, in the shard array
// parallel to the hot lines. Only the off-fast-path work touches it:
// timeouts, late replies, nacks, restarts, sampler and robust work,
// trace-sampled exchanges and the Node handle.
type rcold struct {
	value     float64
	sampler   membership.Sampler // nil: the implicit complete overlay
	initState func(epochID uint64, value float64) core.State
	// trim is the node's robust-merge acceptance band, live while the
	// shard's robust policy has Trim set (see Runtime.SetRobust).
	trim robust.TrimState
	// pendingPeer is the in-flight exchange's destination, kept so a
	// missed reply deadline can Forget it (failure detection from
	// traffic); only maintained when the sampler observes.
	pendingPeer string
	// timedOut records the last exchange whose deadline fired, so its
	// late reply is still applied, once (see handleReply).
	timedOut seqRecord
	// sent is the primary field of the node's last push, kept while the
	// robust gate is on: a reply's implied report is sent + 2d.
	sent float64
	// pendingAt (when the push was sent) and pendingDst (peer index, -1
	// not hosted) are written only for trace-sampled exchanges, the only
	// ones recordTrace reads.
	pendingAt  float64
	pendingDst int32
	// The rare per-node counters (see rnode for the three per-exchange ones).
	timeouts, lateReplies, lateGivenUp, epochSwitches uint64
	staleDropped, sendErrors, busyDropped, peerBusy   uint64
}

// seqRecord is a node's record of its last timed-out exchange, whose
// reply may still arrive: its seq, 0 when none. take strikes it out, so
// a late reply applies at most once; a newer timeout overwrites it and
// gives the older reply up (counted as LateGivenUp). One slot is what
// the measured traffic needs: no late reply in the instrumented runs of
// ROADMAP item 16(a) belonged to any but the node's newest timed-out
// exchange.
type seqRecord uint64

// take reports whether seq is the recorded one, and strikes it out.
func (r *seqRecord) take(seq uint64) bool {
	if seq == 0 || seqRecord(seq) != *r {
		return false
	}
	*r = 0
	return true
}

// gateReply runs the active robust gate on a reply's payload f, for a
// node whose push carried sent as its primary field, and reports whether
// the reply is admitted. The peer's report is sent + 2d when the field
// is an Average (f[0] is the transfer d) and f[0] itself for Min and Max
// (the pre-merge value): it is clamped, f[0] is cut to match, and the
// trim judges the report's distance from sent.
func gateReply(p robust.Policy, t *robust.TrimState, agg core.Aggregate, sent float64, f []float64) bool {
	rep := f[0]
	if agg == core.Average {
		rep = sent + 2*f[0]
	}
	rep = p.ClampValue(rep)
	f[0] = rep
	if agg == core.Average {
		f[0] = (rep - sent) / 2
	}
	return !p.Trim || t.Admit(rep-sent, p.TrimK)
}

// letter is one in-process message: the protocol message with its
// sender and destination as global node indices. Its From and To
// strings stay empty; send spells them out from Runtime.addrs only if
// the message leaves through the batcher instead.
type letter struct {
	m        transport.Message
	from, to int32
}

// mailbox is one shard's inbound queue for in-process messages from its
// sibling shards: a mutex-guarded slice that a sender appends a whole
// round's worth of letters to under one lock, and the owner swaps out
// once per round. A cross-shard exchange comes through it only when fuse
// declined to run it in place — the shard's round lock was held, or a
// gate condition asked for the letters — so it carries those pushes and
// their answers. notify (one slot) is signalled only when the slice
// goes from empty to non-empty, so a busy receiver is woken at most
// once per drain, not once per message. The slice is capped at the
// receiving endpoint's inbox capacity; overflow is dropped and counted,
// exactly the UDP semantics of a full fabric inbox.
type mailbox struct {
	mu      sync.Mutex
	msgs    []letter
	limit   int
	depth   atomic.Int64 // len(msgs), for lock-free scrapes and the empty check
	dropped atomic.Uint64
	notify  chan struct{}
}

// post appends ls (up to the cap) and wakes the owner if the mailbox
// was empty. It does not retain ls.
func (mb *mailbox) post(ls []letter) {
	mb.mu.Lock()
	wasEmpty := len(mb.msgs) == 0
	n := min(len(ls), mb.limit-len(mb.msgs))
	mb.msgs = append(mb.msgs, ls[:n]...)
	mb.depth.Store(int64(len(mb.msgs)))
	mb.mu.Unlock()
	if n < len(ls) {
		mb.dropped.Add(uint64(len(ls) - n))
	}
	if wasEmpty && n > 0 {
		select {
		case mb.notify <- struct{}{}:
		default: // a wake is already pending
		}
	}
}

// take swaps the queued letters out against spare (which must be
// empty) and returns them.
func (mb *mailbox) take(spare []letter) []letter {
	mb.mu.Lock()
	got := mb.msgs
	mb.msgs = spare
	mb.depth.Store(0)
	mb.mu.Unlock()
	return got
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
	lateGivenUp    atomic.Uint64
	served         atomic.Uint64
	epochSwitches  atomic.Uint64
	staleDropped   atomic.Uint64
	sendErrors     atomic.Uint64
	busyDropped    atomic.Uint64
	peerBusy       atomic.Uint64
	robustRejected atomic.Uint64
	_              [32]byte // pad 12×8 B of counters to two full cache lines
}

// rshard is one worker's slice of the runtime: a contiguous node range,
// a schedule (a wake calendar and a deadline ring), a mailbox for
// in-process messages from sibling shards, and an endpoint with its
// batcher for everything that travels the transport.
//
// Everything under mu is owned by whichever goroutine holds the round
// lock — normally the shard's own worker, occasionally a sibling
// stealing a round (see Runtime.trySteal) or fusing one exchange with a
// node of this shard (see fuse), or an observer. A sibling worker takes
// it only with TryLock, never Lock, so no worker ever waits on a second
// shard while holding its own, and no lock-order deadlock can form. The
// lock is taken once per scheduler round, not per message, so the hot
// path pays one Lock/Unlock per eventBudget of work.
type rshard struct {
	rt     *Runtime
	id     int
	lo, hi int
	ep     transport.Endpoint
	out    *transport.Batcher

	mu sync.Mutex
	// nodes and cold are the parallel per-node arrays, indexed by local
	// index i − lo; backing is the state column, width values per node
	// (see state).
	nodes   []rnode
	cold    []rcold
	backing []float64
	width   int
	// rng is the shard's one random stream: initial phases, waits,
	// partner draws and the samplers' Sample and AppendDigest.
	rng       xrand.Rand
	wakes     calendar
	deadlines deadlineRing
	free      localFree // Fields buffer free list, guarded by mu
	seq       uint64

	// ahead is the round look-ahead's scratch list of the nodes its due
	// events will touch (room for a third of a budget of deadlines and
	// as many wakes with their partners, so it never grows); touched
	// sums the words the look-ahead loads, so the compiler keeps the
	// loads.
	ahead   []int32
	touched uint64

	// In-process delivery (see send), guarded by mu. local queues the
	// messages hosted nodes addressed to nodes of this same shard; each
	// is handled before the next can be produced (drainLocal), which is
	// what lets a local message's gossip digest live in the shard's
	// digAddrs/digAges scratch instead of message-owned slices. outbox
	// stages, per destination shard, the messages addressed to sibling
	// shards during a round; postLocked hands each non-empty one to its
	// shard's mailbox under one lock at the end of the round. inmail is
	// the spare slice swapped against the own mailbox's contents.
	// localDelivered counts every in-process delivery — same-shard,
	// mailbox, and the pushes a sibling's fused exchanges delivered here
	// (published via pub once per round). fused counts the deliveries
	// this shard's fused exchanges stood in for since the last
	// drainLocal, which charges them like the letters they replace.
	local          []letter
	outbox         [][]letter
	inmail         []letter
	digAddrs       []string
	digAges        []uint32
	localDelivered uint64
	fused          int

	// mail receives the in-process messages sibling shards address to
	// this shard's nodes. It has its own lock, so senders never touch mu.
	mail mailbox

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

// state returns local node li's state vector: its row of the backing
// column. Caller holds s.mu.
func (s *rshard) state(li int) []float64 {
	return s.backing[li*s.width : (li+1)*s.width : (li+1)*s.width]
}

// NewRuntime builds (but does not start) a runtime.
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
	} else {
		rt.sockets = true
		for _, ep := range endpoints {
			if _, socket := ep.(*transport.TCPEndpoint); !socket {
				rt.sockets = false
			}
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
	// One stream per shard, split from a master in shard order — the
	// kernel's derivation (DESIGN.md "Determinism contract").
	master := xrand.New(cfg.Seed)
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
			cold:      make([]rcold, hi-lo),
			backing:   make([]float64, (hi-lo)*fieldN),
			width:     fieldN,
			rng:       *master.Split(),
			wakes:     newCalendar(hi-lo, cfg.CycleLength.Seconds()),
			deadlines: newDeadlineRing(hi - lo),
			free:      newLocalFree(rt.pool, hi-lo),
			ahead:     make([]int32, 0, eventBudget(hi-lo)),
			outbox:    make([][]letter, cfg.Workers),
			done:      make(chan struct{}),
		}
		s.mail.limit = cap(endpoints[w].Inbox())
		s.mail.notify = make(chan struct{}, 1)
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
		for li := range s.nodes {
			i := s.lo + li
			n, c := &s.nodes[li], &s.cold[li]
			c.value = cfg.Value(i)
			n.tracker = epoch.NewTracker(startEpoch)
			if cfg.InitState != nil {
				c.initState = cfg.InitState(i)
			}
			if cfg.Samplers != nil {
				sampler, err := cfg.Samplers(i, rt.addrs[i], rt.addrs)
				if err != nil {
					return nil, fmt.Errorf("engine: sampler for node %d: %w", i, err)
				}
				c.sampler = sampler
				n.sampled = true
				_, isDir := sampler.(*membership.Directory)
				n.observes = !isDir
			}
			copy(s.state(li), rt.initStateFor(c, startEpoch))
			rt.nodes[i] = &Node{rt: rt, idx: i}
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
			{"repro_engine_late_replies_absorbed_total", "Replies applied after their exchange's deadline fired (the transfer the peer already gave).", &s.ctr.lateReplies},
			{"repro_engine_late_replies_given_up_total", "Timed-out exchanges whose late reply a newer timeout gave up (its transfer is lost if it still arrives).", &s.ctr.lateGivenUp},
			{"repro_engine_exchanges_nacked_total", "Exchanges declined by a busy peer.", &s.ctr.peerBusy},
			{"repro_engine_pushes_served_total", "Inbound pushes merged and replied to.", &s.ctr.served},
			{"repro_engine_pushes_declined_total", "Inbound pushes nacked while busy.", &s.ctr.busyDropped},
			{"repro_robust_rejected_total", "Exchange halves rejected by the robust trim gate.", &s.ctr.robustRejected},
			{"repro_engine_messages_stale_dropped_total", "Messages dropped for an out-of-sync epoch.", &s.ctr.staleDropped},
			{"repro_engine_epoch_restarts_total", "Node state reinitializations at epoch boundaries.", &s.ctr.epochSwitches},
			{"repro_engine_send_errors_total", "Sends that failed synchronously or via batch feedback.", &s.ctr.sendErrors},
			{"repro_engine_rounds_total", "Scheduler rounds run.", &s.pub.rounds},
			{"repro_engine_messages_received_total", "Inbound messages handled, local deliveries included.", &s.pub.received},
			{"repro_engine_local_delivered_total", "Messages between two hosted nodes delivered in-process (same shard in-round, sibling shard by mailbox), bypassing the transport.", &s.pub.localDelivered},
			{"repro_pool_gets_total", "Fields buffers drawn from the shard free list.", &s.pub.poolGets},
			{"repro_pool_puts_total", "Fields buffers recycled into the shard free list.", &s.pub.poolPuts},
			{"repro_pool_misses_total", "Buffer draws that fell through to the shared pool.", &s.pub.poolMiss},
		} {
			reg.CounterFunc(c.name, c.help, c.v.Load, lbl)
		}
		reg.GaugeFunc("repro_pool_local_free", "Buffers resident in the shard free list.",
			func() float64 { return float64(s.pub.poolFree.Load()) }, lbl)
		reg.GaugeFunc("repro_engine_inbox_depth", "Messages queued for the shard: endpoint inbox plus in-process mailbox.",
			func() float64 { return float64(len(s.ep.Inbox())) + float64(s.mail.depth.Load()) }, lbl)
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
		for i := range s.cold {
			if g, ok := s.cold[i].sampler.(*membership.GossipSampler); ok {
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
			reg.CounterFunc("repro_transport_tcp_inbox_dropped_total", "Inbound messages dropped on a full inbox or mailbox.",
				func() uint64 { return tcp.InboxDropped() + s.mail.dropped.Load() }, lbl)
		}
	}
	if rt.fabric != nil {
		reg.CounterFunc("repro_transport_fabric_loss_dropped_total",
			"Messages dropped by the fabric loss model or a partition filter.", rt.fabric.LossDropped)
		reg.CounterFunc("repro_transport_fabric_inbox_dropped_total",
			"Messages dropped on a full in-memory inbox or mailbox.", func() uint64 {
				t := rt.fabric.InboxDropped()
				for _, s := range rt.shards {
					t += s.mail.dropped.Load()
				}
				return t
			})
	}
}

// initStateFor builds a node's state vector for an epoch.
func (rt *Runtime) initStateFor(c *rcold, epochID uint64) core.State {
	if c.initState != nil {
		return c.initState(epochID, c.value)
	}
	return rt.schema.InitState(c.value)
}

// Size returns the number of hosted nodes.
func (rt *Runtime) Size() int { return len(rt.addrs) }

// Workers returns the worker/shard count.
func (rt *Runtime) Workers() int { return len(rt.shards) }

// Nodes returns the hosted nodes' handles in index order.
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
				// avoid lockstep collisions (§1.1 autonomy).
				s.arm(i-s.lo, s.rng.Float64()*cycle)
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
		for li := range s.nodes {
			out[s.lo+li] = s.backing[li*s.width+idx]
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
		for li := range s.nodes {
			if n := &s.nodes[li]; n.failed || n.adv != 0 {
				// Crashed nodes are not part of the live population, and
				// adversaries' pinned columns are exactly the poison the
				// observation layer measures the influence of — folding
				// them in would hide the corruption.
				continue
			}
			fn(s.backing[li*s.width+idx])
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
		for li := range s.nodes {
			if n := &s.nodes[li]; n.failed || n.adv != 0 {
				continue
			}
			fn(s.cold[li].value)
		}
		s.mu.Unlock()
	}
}

// NodeState returns a copy of node i's state vector.
func (rt *Runtime) NodeState(i int) core.State {
	s := rt.shardOf(i)
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(core.State, s.width)
	copy(out, s.state(i-s.lo))
	return out
}

// NodeEpoch returns node i's current epoch identifier.
func (rt *Runtime) NodeEpoch(i int) uint64 {
	s := rt.shardOf(i)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodes[i-s.lo].tracker.Current()
}

// NodeStats returns a snapshot of node i's counters, assembled from its
// hot line and its cold record.
func (rt *Runtime) NodeStats(i int) Stats {
	s := rt.shardOf(i)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, c := &s.nodes[i-s.lo], &s.cold[i-s.lo]
	return Stats{
		Initiated:     n.initiated,
		Replies:       n.replies,
		Timeouts:      c.timeouts,
		LateReplies:   c.lateReplies,
		LateGivenUp:   c.lateGivenUp,
		Served:        n.served,
		EpochSwitches: c.epochSwitches,
		StaleDropped:  c.staleDropped,
		SendErrors:    c.sendErrors,
		BusyDropped:   c.busyDropped,
		PeerBusy:      c.peerBusy,
	}
}

// SetValue updates node i's local attribute (visible at the next epoch
// restart, §4 adaptivity).
func (rt *Runtime) SetValue(i int, v float64) {
	s := rt.shardOf(i)
	s.mu.Lock()
	s.cold[i-s.lo].value = v
	s.mu.Unlock()
}

// InjectValue updates node i's local attribute to v and folds the
// difference into its current approximation of field idx, so the new
// value enters the aggregate immediately rather than at the next epoch
// restart — the dynamic-signals feed behind System.SetValue. An
// exchange in flight does not disturb it: the reply carries a transfer
// that is added to whatever the state is when it lands (see servePush),
// so the whole delta stays in Σ.
func (rt *Runtime) InjectValue(i, idx int, v float64) {
	s := rt.shardOf(i)
	s.mu.Lock()
	defer s.mu.Unlock()
	li := i - s.lo
	c := &s.cold[li]
	if !s.nodes[li].failed {
		s.state(li)[idx] += v - c.value
	}
	c.value = v
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
	// Retire any in-flight exchange: its deadline and reply become no-ops.
	n.pendingSeq = 0
	rt.failedNodes.Add(1)
	return true
}

// ReviveNode brings a failed node back as a fresh joiner: its state is
// reinitialized from its current local value (stale pre-crash mass is
// discarded, late replies to its old exchanges included) and it resumes
// initiating on its existing wake cadence. Reports whether the call
// changed the node's status.
func (rt *Runtime) ReviveNode(i int) bool {
	s := rt.shardOf(i)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := &s.nodes[i-s.lo]
	if !n.failed {
		return false
	}
	n.failed = false
	c := &s.cold[i-s.lo]
	copy(s.state(i-s.lo), rt.initStateFor(c, n.tracker.Current()))
	c.timedOut = 0
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
		for li := range s.nodes {
			n, c := &s.nodes[li], &s.cold[li]
			n.adv = 0
			if !mark[s.lo+li] {
				continue
			}
			n.adv = 1 + uint8(behavior)
			switch behavior {
			case sim.AdvExtreme:
				c.value = magnitude
			case sim.AdvColluding, sim.AdvEclipse:
				c.value = target
			}
			if behavior != sim.AdvSelectiveDrop {
				copy(s.state(li), rt.initStateFor(c, n.tracker.Current()))
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
			for li := range s.nodes {
				if n := &s.nodes[li]; n.adv == 0 && !n.failed {
					run.Add(s.backing[li*s.width])
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
		for i := range s.cold {
			// An exchange already in flight pushed the state as it still
			// is, barring an injection (a busy node serves nothing).
			s.cold[i].trim, s.cold[i].sent = seed, s.backing[i*s.width]
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
		agg.LateGivenUp += s.ctr.lateGivenUp.Load()
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
		c := &s.cold[idx-s.lo]
		c.sendErrors++
		s.ctr.sendErrors.Add(1)
		if s.nodes[idx-s.lo].observes {
			c.sampler.Forget(f.to)
		}
		// If the failed message was the in-flight exchange's push, the
		// reply timeout reaps it; nothing more to do here.
	}
}

// sleepFloorDivisor sets the shortest sleep a worker takes:
// CycleLength/sleepFloorDivisor. Without a floor a shard whose next
// wake is microseconds away wakes for it alone, and a paced run spends
// its CPU on timer resets and channel selects for rounds of three or
// four exchanges. With it, a round collects every event that falls due
// within the floor — a thousandth of a cycle, far below the protocol's
// own timescale. A message (a mailbox notify or an endpoint delivery)
// still wakes the worker at once; a shard behind schedule does not
// sleep at all.
const sleepFloorDivisor = 1000

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
	floor := s.rt.cfg.CycleLength / sleepFloorDivisor
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
		timer.Reset(max(sleep, floor))
		select {
		case <-s.rt.stop:
			return
		case m, ok := <-inbox:
			if !ok {
				return
			}
			s.mu.Lock()
			s.handleWire(m)
			s.drainLocal()
			s.postLocked()
			s.mu.Unlock()
		case <-s.mail.notify:
		case <-timer.C:
		}
	}
}

// roundLocked runs one scheduler round: take the mailbox's letters in
// one swap, drain queued inbound messages (bounded, so observers are
// never locked out for a full inbox), fire due timers up to the event
// budget — wakes and reply deadlines merged in time order, a deadline
// first on a tie — hand the round's letters for sibling shards to their
// mailboxes, and publish the shard's next due time. Whatever an event
// or inbound message sends to a node of this same shard is delivered
// right behind it (drainLocal) and charged to the same budget, so a
// round never holds the lock for more handled messages than it could
// before. Before the letters are handled, and again before the timers
// fire, a read-only look-ahead touches every node they are about to
// reach, back to back, so the cache misses of a batch overlap instead
// of stalling one handler after another (see touch). The caller holds
// s.mu. It returns how long the shard may sleep before its next event
// (≤ 0 when it should run again immediately) and ok=false when the
// inbox has been closed.
func (s *rshard) roundLocked(inbox <-chan transport.Message) (sleep time.Duration, ok bool) {
	budget := eventBudget(s.hi - s.lo)
	drained := 0
	if s.mail.depth.Load() > 0 {
		got := s.mail.take(s.inmail)
		touched := s.touched
		for i := range got {
			touched += s.touch(got[i].to)
		}
		s.touched = touched
		for i := range got {
			l := got[i]
			got[i] = letter{}
			s.handleMessage(&l.m, l.from, l.to)
			drained += 1 + s.drainLocal()
		}
		s.localDelivered += uint64(len(got))
		s.inmail = got[:0]
	}
drain:
	for drained < 4*budget {
		select {
		case m, mok := <-inbox:
			if !mok {
				return 0, false
			}
			s.handleWire(m)
			drained += 1 + s.drainLocal()
		default:
			break drain
		}
	}
	now := s.rt.now()
	// A fused exchange charges its wake and two deliveries, so a full
	// round fires about a third of a budget of wakes; touching more
	// would only re-touch, next round, lines already in cache.
	s.lookAhead(now, budget/3)
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
	s.postLocked()
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

// lookAhead touches the node of every deadline and wake due by now, and
// each wake's armed partner, up to limit of each: the nodes the round's
// firing loop is about to handle. It moves nothing in the
// schedule and draws nothing. Caller holds s.mu.
func (s *rshard) lookAhead(now float64, limit int) {
	s.ahead = s.deadlines.appendDue(s.ahead[:0], now, limit)
	s.ahead = s.wakes.appendDue(s.ahead, now, limit)
	touched := s.touched
	for _, i := range s.ahead {
		touched += s.touch(i)
	}
	s.touched = touched
}

// touch loads global node i's hot line and both ends of its state row
// when this shard hosts it, and returns the loaded words' sum (0 for a
// node of another shard, whose lines belong to its owner's lock). A
// handler's first touch of a node is a cache miss — a 50 k-node shard's
// hot lines alone outgrow L2 — and the microsecond of dependent work
// behind each one keeps two such misses from ever being in flight at
// once; loads issued back to back with nothing depending on them
// overlap instead, and the handlers then find the lines in cache.
// Caller holds s.mu.
func (s *rshard) touch(i int32) uint64 {
	li := int(i) - s.lo
	if li < 0 || li >= len(s.nodes) {
		return 0
	}
	row := s.state(li)
	return s.nodes[li].pendingSeq + math.Float64bits(row[0]) + math.Float64bits(row[len(row)-1])
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
	li := int(d.node) - s.lo
	n := &s.nodes[li]
	if n.pendingSeq != d.seq {
		return
	}
	n.pendingSeq = 0
	c := &s.cold[li]
	c.timeouts++
	s.ctr.timeouts.Add(1)
	if n.observes && c.pendingPeer != "" {
		// Failure detection from traffic: a missed deadline drops the
		// peer from the view. A live-but-slow peer re-enters the moment
		// its next message is observed.
		c.sampler.Forget(c.pendingPeer)
	}
	// The peer may have served the push already: its reply, however
	// late, still owes this node the transfer. The one-slot record gives
	// up an older timed-out exchange's reply; count it.
	if c.timedOut != 0 {
		c.lateGivenUp++
		s.ctr.lateGivenUp.Add(1)
	}
	c.timedOut = seqRecord(d.seq)
	if s.traceSampled(d.seq) {
		s.recordTrace(li, d.seq, TraceTimedOut, now)
	}
}

// handleWake runs node w.node's scheduled exchange initiation, with the
// partner armed in w when there is one, and re-arms its next wake (see
// arm). Caller holds s.mu.
func (s *rshard) handleWake(w wake, now float64) {
	li := int(w.node) - s.lo
	n := &s.nodes[li]
	if n.failed {
		// A crashed node keeps its wake cadence ticking (so a revive
		// resumes seamlessly) but is otherwise silent: no epoch
		// observation, no view aging, no initiation — and no partner
		// armed, so a revived node draws its first one at initiation.
		wait := s.waitSeconds()
		at := w.at + wait
		if at <= now {
			at += math.Floor((now-at)/wait+1) * wait
		}
		s.wakes.push(wake{at: at, node: w.node})
		return
	}
	s.checkClock(li)
	if n.observes {
		// One gossip round per wake: view entries age per cycle, not per
		// message, so lifetimes are independent of traffic rate.
		s.cold[li].sampler.Tick()
	}
	wait := s.waitSeconds()
	at := w.at + wait
	if n.pendingSeq == 0 {
		s.initiate(li, now, w.peer)
	} else if at <= now {
		// A wake that finds an exchange still in flight initiates
		// nothing: a node has one exchange in flight at a time, and the
		// reply deadline is the only reaper (it records the seq, so a
		// late reply still lands). A backlogged no-op wake skips
		// ahead to its first slot past real time: when the shard runs L
		// behind schedule, re-pushing at w.at+Δt would be a treadmill —
		// N·L/Δt no-op wakes ground through in stale virtual time before
		// the due deadlines behind them ever surface, wedging every node
		// in pending. The skip must preserve the node's phase (whole
		// multiples of its wait, not a clamp to now): clamping re-pins
		// every backlogged node to the same instant, and a constant-wait
		// shard whose phases collapse livelocks — every node initiates
		// in the same round and busy-nacks every push forever after.
		at += math.Floor((now-at)/wait+1) * wait
	}
	s.arm(li, at)
}

// arm schedules local node li's next wake at time at. On the implicit
// complete overlay the wake carries the partner drawn now, about one
// wait before it is used, so the round look-ahead can touch that
// partner's lines before the wake fires; a sampled node draws at
// initiation, since its sampler may return a remote address, which a
// wake cannot hold. Caller holds s.mu.
func (s *rshard) arm(li int, at float64) {
	w := wake{at: at, node: int32(s.lo + li)}
	if !s.nodes[li].sampled {
		w.peer = 1 + int32(completePeer(&s.rng, len(s.rt.addrs), s.lo+li))
	}
	s.wakes.push(w)
}

// waitSeconds draws one inter-exchange waiting time in seconds.
func (s *rshard) waitSeconds() float64 {
	cycle := s.rt.cfg.CycleLength.Seconds()
	if s.rt.cfg.Wait == ExponentialWait {
		return s.rng.ExpFloat64() * cycle
	}
	return cycle
}

// checkClock performs local node li's own scheduled epoch restart.
func (s *rshard) checkClock(li int) {
	if s.rt.cfg.Clock == nil {
		return
	}
	if s.nodes[li].tracker.Observe(s.rt.cfg.Clock.Current(time.Now())) {
		s.restart(li)
	}
}

// restart reinitializes local node li's state for its (already
// advanced) current epoch. Caller holds s.mu.
func (s *rshard) restart(li int) {
	n, c := &s.nodes[li], &s.cold[li]
	copy(s.state(li), s.rt.initStateFor(c, n.tracker.Current()))
	c.epochSwitches++
	s.ctr.epochSwitches.Add(1)
}

// initiate performs the active half of one exchange for local node li:
// take the peer armed with the wake (peer is 1 + its index, 0 for none)
// or sample one, then either run the whole exchange in place when the
// peer is hosted in process — in this shard, or in a sibling whose round
// lock TryLock gets — and fuse accepts it, or send the push and arm the
// reply deadline. Caller holds s.mu and has checked that no exchange
// is in flight. The push's Fields buffer is drawn from the shard's free
// list; ownership passes with the send (and on every in-process path,
// or a lossless fabric, the same buffer eventually returns via the pull
// reply).
func (s *rshard) initiate(li int, now float64, peer int32) {
	n := &s.nodes[li]
	idx := s.lo + li
	// to is the peer's index when it is hosted here (-1 otherwise); addr
	// is the sampler's address for it, "" under the implicit overlay.
	to := peer - 1
	var addr string
	switch {
	case n.sampled:
		sampled, ok := s.cold[li].sampler.Sample(&s.rng)
		if !ok {
			return
		}
		to, addr = s.rt.hostedIndex(sampled), sampled
		if to == int32(idx) {
			return
		}
	case peer == 0:
		to = int32(completePeer(&s.rng, len(s.rt.addrs), idx))
	}
	r := s.routeTo(to)
	if r != viaWire {
		t := s
		if r == viaMail {
			t = s.rt.shardOf(int(to))
		}
		if s.fuse(li, t, int(to)-t.lo) {
			return
		}
	}
	fields := s.free.get()
	copy(fields, s.state(li))
	if s.robustOn {
		s.cold[li].sent = fields[0]
	}
	s.seq++
	msg := transport.Message{
		Kind:   transport.KindPush,
		Epoch:  n.tracker.Current(),
		Seq:    s.seq,
		Fields: fields,
	}
	if n.adv == 1+uint8(sim.AdvEclipse) {
		// Eclipse push: flood the victim's view with adversary
		// addresses at age 0 (the shared digest is immutable, so the
		// receiver-must-not-retain contract is moot).
		msg.Gossip, msg.GossipAges = s.advGossip, s.advAges
	} else {
		msg.Gossip, msg.GossipAges = s.digest(li, r == viaLocal)
	}
	n.initiated++
	s.ctr.initiated.Add(1)
	if !s.rt.cfg.PushOnly {
		n.pendingSeq = s.seq
		if n.observes {
			s.cold[li].pendingPeer = addr
		}
		if s.traceSampled(s.seq) {
			c := &s.cold[li]
			c.pendingAt, c.pendingDst = now, to
		}
		// now is the round's reading of the monotonic runtime clock, so
		// deadlines are armed in the order they fall due.
		s.deadlines.push(deadline{
			at:   now + s.rt.cfg.ReplyTimeout.Seconds(),
			seq:  s.seq,
			node: int32(idx),
		})
	}
	s.send(li, to, addr, r, msg)
}

// fuse runs one exchange from local node li to local node pi of shard t
// as one in-place step when the letters would do nothing but merge the
// two state rows and count: no letter, no Fields buffer, no reply
// deadline. t is this shard, whose letters would be delivered inside
// this same hold of the round lock anyway (drainLocal), or a sibling,
// whose round lock fuse takes only with TryLock, never Lock: a worker
// never waits on a second shard while holding its own, so no lock-order
// deadlock can form between workers, stealers and observers. A held
// sibling lock declines the exchange, and so does every condition under
// which the letters do more than merge and count — the initiator's
// checked before any lock is taken, the partner's under both locks. A
// declined exchange touches nothing and takes the letter path. An
// accepted one bumps exactly the counters the letters would: the
// partner's shard counts the push (recv, localDelivered, served — or
// busyDropped for a partner with its own exchange out, which changes no
// state), this shard the answer (recv, initiated, replies or peerBusy),
// and s.seq advances as for the push. The round's budget is charged the
// deliveries it would have handled: both of a same-shard pair, the
// answer of a cross-shard one. Caller holds s.mu.
func (s *rshard) fuse(li int, t *rshard, pi int) bool {
	// The initiator's own line and the shard's settings first: a
	// gossiping shard declines before touching the partner's lock or line.
	n := &s.nodes[li]
	if s.rt.cfg.PushOnly || s.robustOn || n.observes || n.adv != 0 || s.traceSampled(s.seq+1) {
		return false
	}
	if t != s {
		if !t.mu.TryLock() {
			return false
		}
		defer t.mu.Unlock()
	}
	// SetRobust switches shards one at a time: t's gate may differ.
	p := &t.nodes[pi]
	if t.robustOn || p.failed || p.observes || p.adv != 0 || n.tracker.Current() != p.tracker.Current() {
		return false
	}
	s.seq++
	n.initiated++
	s.ctr.initiated.Add(1)
	s.recv++
	t.recv++
	s.fused++ // the answer
	if t == s {
		s.fused++ // the push
	} else {
		t.localDelivered++
	}
	if p.pendingSeq != 0 {
		t.cold[pi].busyDropped++
		t.ctr.busyDropped.Add(1)
		s.cold[li].peerBusy++
		s.ctr.peerBusy.Add(1)
		return true
	}
	s.rt.schema.MergeInto(core.State(s.state(li)), core.State(t.state(pi)))
	p.served++
	t.ctr.served.Add(1)
	n.replies++
	s.ctr.replies.Add(1)
	return true
}

// completePeer is GETPAIR on the complete overlay of n nodes: one
// uniform draw over the n−1 nodes other than self — the draw
// membership.Directory.Sample makes on the same stream. The runtime
// makes it when it arms a node's wake (arm), about one wait before the
// exchange, and at initiation only for a wake armed without one.
func completePeer(rng *xrand.Rand, n, self int) int {
	j := rng.Intn(n - 1)
	if j >= self {
		j++
	}
	return j
}

// route is where send takes a message.
type route uint8

const (
	viaWire  route = iota // the batcher and the endpoint
	viaLocal              // this shard's local queue, handled in-round
	viaMail               // a sibling shard's mailbox
)

// inProcess reports whether messages between hosted nodes may bypass
// the transport right now: always behind real sockets, and on the
// in-memory fabric while no filter, loss or latency is in force — an
// impaired fabric must see every message so its models apply.
func (rt *Runtime) inProcess() bool {
	if rt.fabric != nil {
		return !rt.fabric.Impaired()
	}
	return rt.sockets
}

// hostedIndex returns the index of the hosted node whose sub-address is
// addr, or -1 when addr names no node of this runtime (a remote peer, a
// bare endpoint address).
func (rt *Runtime) hostedIndex(addr string) int32 {
	i, ok := nodeIndex(addr)
	if !ok || i >= len(rt.addrs) || rt.addrs[i] != addr {
		return -1
	}
	return int32(i)
}

// routeTo picks the path for a message to node to (-1: not hosted).
func (s *rshard) routeTo(to int32) route {
	switch {
	case to < 0 || !s.rt.inProcess():
		return viaWire
	case int(to) >= s.lo && int(to) < s.hi:
		return viaLocal
	default:
		return viaMail
	}
}

// digest draws local node li's piggybacked membership digest for one
// outgoing message (nil when the node's sampler does not gossip). A
// message that leaves the round — through the batcher or a sibling's
// mailbox — must own its digest slices: the batcher retains it until
// flush, and the fabric and the mailbox deliver by reference (DESIGN.md
// "Membership"). A local message is consumed — Observe runs first in
// handleMessage and retains nothing — before the shard builds its next
// one, so its digest lives in shard-owned scratch and costs nothing.
func (s *rshard) digest(li int, local bool) ([]string, []uint32) {
	if s.rt.cfg.GossipFanout <= 0 || !s.nodes[li].observes {
		return nil, nil
	}
	sampler := s.cold[li].sampler
	if !local {
		return sampler.AppendDigest(nil, nil, &s.rng, s.rt.cfg.GossipFanout)
	}
	s.digAddrs, s.digAges = sampler.AppendDigest(s.digAddrs[:0], s.digAges[:0], &s.rng, s.rt.cfg.GossipFanout)
	return s.digAddrs, s.digAges
}

// send routes one protocol message from local node li to node to (a
// global index) along r = s.routeTo(to), which the caller already
// needed for the digest. addr is the destination's address when the caller has
// one (a sampled peer, a wire sender), "" for a hosted node known only
// by index; with neither, the batcher reports the send as failed, as
// for any unreachable peer. A local message is queued for drainLocal and a sibling
// shard's is staged for its mailbox — no strings, codec, channel or
// batcher on either path. Everything else takes the batcher to the
// endpoint with its addresses spelled out, a synchronous failure
// charged to the sender. Caller holds s.mu.
func (s *rshard) send(li int, to int32, addr string, r route, m transport.Message) {
	from := s.lo + li
	switch r {
	case viaLocal:
		s.local = append(s.local, letter{m: m, from: int32(from), to: to})
		return
	case viaMail:
		w := s.rt.shardOf(int(to)).id
		s.outbox[w] = append(s.outbox[w], letter{m: m, from: int32(from), to: to})
		return
	}
	if addr == "" && to >= 0 {
		addr = s.rt.addrs[to]
	}
	m.From = s.rt.addrs[from]
	if err := s.out.Send(addr, m); err != nil {
		s.cold[li].sendErrors++
		s.ctr.sendErrors.Add(1)
	}
}

// postLocked hands the letters this shard staged for each sibling shard
// to that shard's mailbox — one lock per destination per round, however
// many letters. Caller holds s.mu.
func (s *rshard) postLocked() {
	for w, ls := range s.outbox {
		if len(ls) == 0 {
			continue
		}
		s.rt.shards[w].mail.post(ls)
		clear(ls)
		s.outbox[w] = ls[:0]
	}
}

// drainLocal handles the queued local messages, and the ones handling
// them queues, through the same handleMessage every delivery takes; it
// returns how many it delivered, fused exchanges' two each included, so
// the round can charge them to its budget. A handled push queues at most
// a reply or a nack and those queue nothing, so the chain behind one
// event is at most two messages and the queue never holds more than one
// undelivered — a local exchange starts and completes inside one hold of
// the round lock, atomic as Figure 1 has it, and never finds its partner
// busy with another local exchange. Most local exchanges never get here
// as letters: fuse runs them in place, and the queue carries only the
// ones it declines. Caller holds s.mu.
func (s *rshard) drainLocal() int {
	delivered := 0
	for ; delivered < len(s.local); delivered++ {
		l := s.local[delivered]
		s.local[delivered] = letter{}
		s.handleMessage(&l.m, l.from, l.to)
	}
	s.local = s.local[:0]
	delivered += s.fused
	s.fused = 0
	s.localDelivered += uint64(delivered)
	return delivered
}

// handleWire demultiplexes one message that arrived through the
// endpoint. A message addressed to the endpoint's bare base address (no
// '#' sub-address) is first-contact traffic from a peer that only knows
// this process's listen address (aggnode -peers host:port); the shard's
// first node serves it, and the reply's From carries that node's full
// sub-address, which bootstraps the remote sampler onto proper
// sub-addresses. A sender hosted by this runtime (traffic that crossed
// the fabric while it was impaired) is resolved to its index, so the
// answer can take the in-process path once the fabric is healthy again.
// Caller holds s.mu.
func (s *rshard) handleWire(m transport.Message) {
	to := int32(s.lo)
	if idx, ok := nodeIndex(m.To); ok {
		to = -1 // misrouted unless the index is in range
		if idx < s.hi {
			to = int32(idx)
		}
	}
	from := int32(-1)
	if s.rt.inProcess() {
		from = s.rt.hostedIndex(m.From)
	}
	s.handleMessage(&m, from, to)
}

// handleMessage hands one inbound message to hosted node to. from is the
// sender's index when it is hosted here (-1 otherwise); m.From is empty
// for an in-process letter and the sender's address for a wire message.
// The caller holds s.mu (messages are handled in round-sized batches
// under one lock acquisition, not one acquisition per message).
func (s *rshard) handleMessage(m *transport.Message, from, to int32) {
	s.recv++
	if int(to) < s.lo || int(to) >= s.hi {
		return // misrouted sub-address; drop
	}
	li := int(to) - s.lo
	n := &s.nodes[li]
	if n.failed {
		// A crashed node neither serves nor absorbs: peers see pure
		// silence (their exchanges time out), exactly like a process
		// crash on a real network.
		s.free.put(m.Fields)
		return
	}
	if n.observes {
		sender := m.From
		if sender == "" && from >= 0 {
			sender = s.rt.addrs[from]
		}
		if sender != "" {
			s.cold[li].sampler.Observe(sender, m.Gossip, m.GossipAges)
		}
	}
	switch m.Kind {
	case transport.KindPush:
		s.servePush(li, from, m)
	case transport.KindReply, transport.KindNack:
		s.handleReply(li, m)
	}
}

// servePush implements the passive half (Figure 1, bottom) for local
// node li in transfer form: adopt the merge and reply with the transfer
// d = (b − a)/2 the initiator adds to its state (core's MergeExchange).
// The answer goes back to the push's sender: node from when it is
// hosted here, m.From otherwise. Caller holds s.mu and owns m.Fields
// (receiver-owns rule); a reply rewrites that buffer in place into its
// payload, every other path recycles it.
func (s *rshard) servePush(li int, from int32, m *transport.Message) {
	n := &s.nodes[li]
	if !s.rt.cfg.PushOnly && n.pendingSeq != 0 {
		// An own exchange is in flight: decline with a nack. Σ would
		// hold either way (the reply is a transfer); the nack keeps each
		// node in one exchange at a time, the model the convergence
		// factor of §3.3 is derived under. ROADMAP item 17 measures
		// whether it can go.
		s.cold[li].busyDropped++
		s.ctr.busyDropped.Add(1)
		s.free.put(m.Fields)
		s.send(li, from, m.From, s.routeTo(from), transport.Message{
			Kind:  transport.KindNack,
			Epoch: n.tracker.Current(),
			Seq:   m.Seq,
		})
		return
	}
	if n.tracker.Observe(m.Epoch) {
		s.restart(li)
	} else if !n.tracker.InSync(m.Epoch) {
		s.cold[li].staleDropped++
		s.ctr.staleDropped.Add(1)
		s.free.put(m.Fields)
		return
	}
	state := s.state(li)
	if len(m.Fields) != len(state) {
		s.free.put(m.Fields) // wrong length: put drops it, GC reclaims
		return               // schema mismatch; drop defensively
	}
	if n.adv != 0 {
		// Byzantine responder: answer with the transfer its pinned state
		// implies, (pinned − a)/2, so the initiator faithfully averages
		// the poison in, but never adopt the merge. Eclipse adversaries
		// flood the reply's membership digest with adversary addresses
		// at age 0, capturing gossip-sampled victims' views.
		if s.rt.cfg.PushOnly {
			s.free.put(m.Fields)
			return
		}
		pinned := s.free.get()
		copy(pinned, state)
		s.rt.schema.MergeExchange(core.State(pinned), core.State(m.Fields))
		s.free.put(pinned)
		reply := transport.Message{
			Kind:   transport.KindReply,
			Epoch:  n.tracker.Current(),
			Seq:    m.Seq,
			Fields: m.Fields,
		}
		if n.adv == 1+uint8(sim.AdvEclipse) {
			reply.Gossip, reply.GossipAges = s.advGossip, s.advAges
		}
		n.served++
		s.ctr.served.Add(1)
		s.send(li, from, m.From, s.routeTo(from), reply)
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
		if s.robust.Trim && !s.cold[li].trim.Admit(rep-state[0], s.robust.TrimK) {
			s.ctr.robustRejected.Add(1)
			s.free.put(m.Fields)
			if !s.rt.cfg.PushOnly {
				s.send(li, from, m.From, s.routeTo(from), transport.Message{
					Kind:  transport.KindNack,
					Epoch: n.tracker.Current(),
					Seq:   m.Seq,
				})
			}
			return
		}
	}
	if s.rt.cfg.PushOnly {
		// No reply to build: merge in place and retire the buffer.
		s.rt.schema.MergeInto(core.State(state), core.State(m.Fields))
		n.served++
		s.ctr.served.Add(1)
		s.free.put(m.Fields)
		return
	}
	// One pass, zero copies: the state adopts the merge and the inbound
	// push buffer becomes the reply's transfer payload.
	s.rt.schema.MergeExchange(core.State(state), core.State(m.Fields))
	n.served++
	s.ctr.served.Add(1)
	r := s.routeTo(from)
	reply := transport.Message{
		Kind:   transport.KindReply,
		Epoch:  n.tracker.Current(),
		Seq:    m.Seq,
		Fields: m.Fields,
	}
	reply.Gossip, reply.GossipAges = s.digest(li, r == viaLocal)
	s.send(li, from, m.From, r, reply)
}

// handleReply completes (or aborts, on nack) local node li's exchange
// m.Seq: the one in flight, or one its deadline already reaped whose
// seq is still in the timed-out record — a late reply. Either way the
// payload is a transfer, added to whatever the state is now, so a late
// reply conserves Σ however the state moved since its push, and
// striking the seq from the record applies it at most once. Caller
// holds s.mu and owns m.Fields, which is recycled on every path.
func (s *rshard) handleReply(li int, m *transport.Message) {
	defer s.free.put(m.Fields)
	n, c := &s.nodes[li], &s.cold[li]
	late := false
	switch {
	case n.pendingSeq != 0 && m.Seq == n.pendingSeq:
		n.pendingSeq = 0
		if m.Kind == transport.KindNack {
			c.peerBusy++
			s.ctr.peerBusy.Add(1)
			if s.traceSampled(m.Seq) {
				s.recordTrace(li, m.Seq, TraceNacked, s.rt.now())
			}
			return
		}
		if s.traceSampled(m.Seq) {
			s.recordTrace(li, m.Seq, TraceCompleted, s.rt.now())
		}
	case m.Kind == transport.KindReply && c.timedOut.take(m.Seq):
		late = true
	default:
		return // a duplicate, a nack past its deadline, or a reply given up
	}
	if n.tracker.Observe(m.Epoch) {
		s.restart(li)
		// The reply belongs to the new epoch we just joined; apply it.
	} else if !n.tracker.InSync(m.Epoch) {
		c.staleDropped++
		s.ctr.staleDropped.Add(1)
		return
	}
	state := s.state(li)
	if len(m.Fields) != len(state) {
		return
	}
	if n.adv != 0 {
		// Byzantine initiator: the exchange completed, but the transfer
		// is silently discarded — the node's report stays pinned.
		if !late {
			n.replies++
			s.ctr.replies.Add(1)
		}
		return
	}
	// A reply that outlived a newer push is judged against that one.
	if s.robustOn && !gateReply(s.robust, &c.trim, s.rt.schema.Agg(0), c.sent, m.Fields) {
		// Active-side reject: the responder already committed its half
		// when it served the push, so only this node's half is dropped —
		// the kernel's initiator-reject semantics.
		s.ctr.robustRejected.Add(1)
		return
	}
	s.rt.schema.ApplyTransfer(core.State(state), core.State(m.Fields))
	if late {
		c.lateReplies++
		s.ctr.lateReplies.Add(1)
		return
	}
	n.replies++
	s.ctr.replies.Add(1)
}
