// Package engine is the deployable, asynchronous realization of the
// Figure 1 protocol: every node runs an active goroutine that wakes up
// once per cycle (constant or exponentially distributed waiting time,
// §1.1), samples a neighbor from its membership layer and performs a
// push-pull exchange over a transport; a dispatcher goroutine serves the
// passive side. Epoch restarts (§4) make the aggregates adaptive.
//
// The paper's analysis assumes zero-latency, perfectly synchronized
// exchanges; the engine relaxes both and is validated empirically against
// the same convergence targets in its tests.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/membership"
	"repro/internal/robust"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/xrand"
)

// WaitPolicy selects how a node draws its inter-exchange waiting time.
type WaitPolicy int

// Waiting-time policies from §1.1 and §3.3: constant Δt makes the node
// initiate exactly once per cycle (GETPAIR_SEQ dynamics), exponential
// waiting with mean Δt approximates GETPAIR_RAND.
const (
	ConstantWait WaitPolicy = iota + 1
	ExponentialWait
)

// String returns the policy name.
func (p WaitPolicy) String() string {
	switch p {
	case ConstantWait:
		return "constant"
	case ExponentialWait:
		return "exponential"
	default:
		return fmt.Sprintf("waitpolicy(%d)", int(p))
	}
}

// Config assembles a node. Schema, Endpoint and Sampler are required.
type Config struct {
	// Schema defines the gossiped fields and their merges.
	Schema *core.Schema
	// Endpoint is the node's transport attachment. The node takes
	// ownership: Stop closes it.
	Endpoint transport.Endpoint
	// Sampler supplies random neighbors and absorbs piggybacked
	// membership gossip.
	Sampler membership.Sampler
	// Value is the node's initial local attribute a_i.
	Value float64
	// CycleLength is Δt, the (mean) waiting time between initiated
	// exchanges. Must be positive.
	CycleLength time.Duration
	// Wait selects the waiting-time distribution (default ConstantWait).
	Wait WaitPolicy
	// ReplyTimeout bounds how long the active side waits for the pull
	// reply; defaults to CycleLength/2. A timed-out exchange is simply
	// skipped — the loss tolerance of E6.
	ReplyTimeout time.Duration
	// Clock, when non-nil, drives epoch restarts: at every epoch
	// boundary the node reinitializes its state from its local value.
	// Nil runs one endless epoch.
	Clock *epoch.Clock
	// InitState overrides state initialization at (re)start; nil uses
	// Schema.InitState(value). Size-estimation leaders use this to seed
	// their indicator field with 1 for epochs they lead.
	InitState func(epochID uint64, value float64) core.State
	// PushOnly disables the pull half of the exchange (ablation:
	// passive peers merge, the initiator never learns anything back).
	PushOnly bool
	// GossipFanout is how many membership addresses to piggyback per
	// message (default 3; negative disables).
	GossipFanout int
	// Seed makes the node's randomness reproducible.
	Seed uint64
}

// withDefaults validates and fills defaults.
func (c Config) withDefaults() (Config, error) {
	if c.Schema == nil {
		return c, fmt.Errorf("engine: config needs a Schema")
	}
	if c.Endpoint == nil {
		return c, fmt.Errorf("engine: config needs an Endpoint")
	}
	if c.Sampler == nil {
		return c, fmt.Errorf("engine: config needs a Sampler")
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
	if c.GossipFanout == 0 {
		c.GossipFanout = 3
	}
	if c.GossipFanout < 0 {
		c.GossipFanout = 0
	}
	return c, nil
}

// Stats is a snapshot of a node's protocol counters.
type Stats struct {
	Initiated     uint64 // exchanges started by the active loop
	Replies       uint64 // pull replies received and merged
	Timeouts      uint64 // exchanges abandoned waiting for the reply
	LateReplies   uint64 // post-timeout replies absorbed to conserve mass
	Served        uint64 // pushes answered on the passive side
	EpochSwitches uint64 // restarts (local timer or observed id)
	StaleDropped  uint64 // messages discarded for carrying an old epoch
	SendErrors    uint64 // transport send failures
	BusyDropped   uint64 // pushes declined while an own exchange was in flight
	PeerBusy      uint64 // own pushes nacked by a busy peer
}

// Node is one protocol participant. Create with NewNode, then Start; Stop
// tears down both goroutines and the endpoint.
//
// A Node handed out by a heap-mode Runtime (or a ModeHeap Cluster) is a
// facade onto the runtime's shared worker pool: the read/write API
// (State, Estimate, Epoch, Stats, SetValue, Addr) addresses that one
// hosted node, while Start and Stop act on the whole runtime.
type Node struct {
	// hrt/hidx route a heap-runtime facade; nil for a real node.
	hrt  *Runtime
	hidx int

	cfg      Config
	addr     string
	pool     *fieldsPool // Fields buffer recycler (shared tier only)
	observes bool        // sampler wants Observe feedback (non-directory)

	mu      sync.Mutex
	state   core.State
	value   float64
	tracker epoch.Tracker
	rngAct  *xrand.Rand // active-loop RNG
	rngDisp *xrand.Rand // dispatcher RNG (digests on replies)

	// replyCh carries the in-flight exchange's pull reply from the
	// dispatcher to the active loop. One persistent one-slot channel
	// serves every exchange: pendingSeq gates which replies are current,
	// and the active loop drains any stale leftover before arming the
	// next exchange — no per-exchange channel or pending-map allocation.
	replyCh    chan transport.Message
	pendingSeq atomic.Uint64
	seq        atomic.Uint64

	replyTimer *time.Timer // reply-deadline timer, reused across exchanges (active loop only)

	// timedOut records the last exchange whose reply deadline fired, so
	// its late reply is still applied, once (see absorb); sent is the
	// primary field of the last push, kept while the robust gate is on.
	// Both guarded by mu.
	timedOut seqRecord
	sent     float64

	initiated, replies, timeouts atomic.Uint64
	lateReplies                  atomic.Uint64
	served, epochSwitches        atomic.Uint64
	staleDropped, sendErrors     atomic.Uint64
	busyDropped, peerBusy        atomic.Uint64

	// busy marks an exchange in flight on the active side. While set,
	// incoming pushes are declined with a nack, so a node takes part in
	// one exchange at a time: not for Σ, which the transfer form keeps
	// either way, but for the model the convergence factor of §3.3 is
	// derived under (see the heap runtime's servePush).
	busy atomic.Bool

	// failed marks a scenario-injected crash: the node stops initiating
	// and drops all inbound traffic until revived. Peers observe only
	// silence (their exchanges time out), like a real process crash.
	failed atomic.Bool

	// Adversary and robust-merge state (guarded by mu). adv is 0 for an
	// honest node, else 1+behavior; an adversary reports its pinned
	// state and never adopts a merge. robustCfg gates inbound merges
	// when robustOn; trim is the node's running acceptance band.
	// advGossip/advAges are the eclipse flood digest, shared read-only
	// across the cluster's adversaries.
	adv       uint8
	trim      robust.TrimState
	robustCfg robust.Policy
	robustOn  bool
	advGossip []string
	advAges   []uint32

	robustRejected atomic.Uint64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	started  atomic.Bool
}

// NewNode builds a node from the configuration; the protocol does not run
// until Start is called.
func NewNode(cfg Config) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	master := xrand.New(cfg.Seed)
	_, isDir := cfg.Sampler.(*membership.Directory)
	n := &Node{
		cfg:      cfg,
		addr:     cfg.Endpoint.Addr(),
		pool:     newFieldsPool(cfg.Schema.Len()),
		observes: !isDir,
		value:    cfg.Value,
		rngAct:   master.Split(),
		rngDisp:  master.Split(),
		replyCh:  make(chan transport.Message, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	startEpoch := uint64(0)
	if cfg.Clock != nil {
		startEpoch = cfg.Clock.Current(time.Now())
	}
	n.tracker = epoch.NewTracker(startEpoch)
	n.state = n.initState(startEpoch, cfg.Value)
	return n, nil
}

// initState builds the node's state for an epoch.
func (n *Node) initState(epochID uint64, value float64) core.State {
	if n.cfg.InitState != nil {
		return n.cfg.InitState(epochID, value)
	}
	return n.cfg.Schema.InitState(value)
}

// Addr returns the node's transport address.
func (n *Node) Addr() string {
	if n.hrt != nil {
		return n.hrt.Addr(n.hidx)
	}
	return n.addr
}

// Start launches the active loop and the dispatcher. Calling Start more
// than once is a no-op. On a heap-runtime facade it starts the whole
// runtime (idempotently, without context — use Runtime.Start or the
// repro.Open front door for context-scoped lifetimes).
func (n *Node) Start() {
	if n.hrt != nil {
		n.hrt.Start(context.Background())
		return
	}
	if n.started.Swap(true) {
		return
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); n.activeLoop() }()
	go func() { defer wg.Done(); n.dispatch() }()
	go func() { wg.Wait(); close(n.done) }()
}

// signalStop begins shutdown — stop channel closed, endpoint closed —
// without waiting for the goroutines to exit. Cluster.Stop signals
// every node before waiting on any: sequential signal-and-wait is
// O(nodes × scheduler latency) when thousands of sibling goroutines
// are runnable, which turns teardown of a 10⁴-node cluster into
// minutes on a loaded host.
func (n *Node) signalStop() {
	n.stopOnce.Do(func() {
		close(n.stop)
		_ = n.cfg.Endpoint.Close() // unblocks the dispatcher
	})
}

// Stop signals both goroutines, closes the endpoint and waits for
// shutdown. It is idempotent and safe to call before Start. On a
// heap-runtime facade it stops the whole runtime.
func (n *Node) Stop() {
	if n.hrt != nil {
		n.hrt.Stop()
		return
	}
	n.signalStop()
	if n.started.Load() {
		<-n.done
	}
}

// SetValue updates the node's local attribute a_i. With epoch restarts
// enabled the new value enters the aggregate at the next epoch (§4's
// adaptivity); without epochs it only affects future restarts.
func (n *Node) SetValue(v float64) {
	if n.hrt != nil {
		n.hrt.SetValue(n.hidx, v)
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.value = v
}

// InjectValue updates the node's local attribute to v and folds the
// difference into its current approximation of field idx, so the new
// value enters the aggregate immediately instead of waiting for an
// epoch restart — the live feed behind System.SetValue. An exchange in
// flight does not disturb it: the reply's transfer is added to whatever
// the state is when it lands, so the whole delta stays in Σ.
func (n *Node) InjectValue(idx int, v float64) {
	if n.hrt != nil {
		n.hrt.InjectValue(n.hidx, idx, v)
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.failed.Load() {
		n.state[idx] += v - n.value
	}
	n.value = v
}

// Fail silently crashes the node until Revive: it stops initiating and
// drops all inbound traffic, so peers see only missed reply deadlines.
// Reports whether the call changed the node's status.
func (n *Node) Fail() bool {
	if n.hrt != nil {
		return n.hrt.FailNode(n.hidx)
	}
	return !n.failed.Swap(true)
}

// Revive brings a failed node back as a fresh joiner: its state is
// reinitialized from its current local value (stale pre-crash mass is
// discarded, late replies to its old exchanges included). Reports
// whether the call changed the node's status.
func (n *Node) Revive() bool {
	if n.hrt != nil {
		return n.hrt.ReviveNode(n.hidx)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.failed.Load() {
		return false
	}
	n.state = n.initState(n.tracker.Current(), n.value)
	n.timedOut = 0
	n.failed.Store(false)
	return true
}

// setAdversary turns the node into a Byzantine adversary (cluster
// internal; semantics in DESIGN.md "Adversary model"). Extreme-value
// reporters pin their value to magnitude, colluding and eclipse
// reporters to target; selective droppers keep their honest draw and
// merely stop adopting merges. gossip/ages is the shared eclipse flood
// digest (nil for other behaviors).
func (n *Node) setAdversary(behavior sim.AdversaryBehavior, magnitude, target float64, gossip []string, ages []uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.adv = 1 + uint8(behavior)
	switch behavior {
	case sim.AdvExtreme:
		n.value = magnitude
	case sim.AdvColluding, sim.AdvEclipse:
		n.value = target
	}
	if behavior != sim.AdvSelectiveDrop {
		n.state = n.initState(n.tracker.Current(), n.value)
	}
	n.advGossip, n.advAges = gossip, ages
}

// clearAdversary restores honest behavior. The pinned value sticks (the
// node rejoins the average as whatever it last reported), mirroring the
// kernel's SetAdversaries(nil) semantics.
func (n *Node) clearAdversary() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.adv = 0
	n.advGossip, n.advAges = nil, nil
}

// setRobust installs the robust-merge policy with a pre-seeded trim
// acceptance band (cluster internal; the cluster seeds from the honest
// population's spread).
func (n *Node) setRobust(p robust.Policy, seed robust.TrimState) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.robustCfg = p
	n.robustOn = p.Enabled()
	n.trim = seed
	n.sent = n.state[0] // what an exchange already in flight pushed, barring an injection
}

// isAdversary reports whether the node is configured as an adversary.
func (n *Node) isAdversary() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.adv != 0
}

// Failed reports whether the node is currently failed.
func (n *Node) Failed() bool {
	if n.hrt != nil {
		s := n.hrt.shardOf(n.hidx)
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.nodes[n.hidx-s.lo].failed
	}
	return n.failed.Load()
}

// Value returns the node's current local attribute a_i.
func (n *Node) Value() float64 {
	if n.hrt != nil {
		s := n.hrt.shardOf(n.hidx)
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.cold[n.hidx-s.lo].value
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.value
}

// State returns a copy of the node's current approximation vector.
func (n *Node) State() core.State {
	if n.hrt != nil {
		return n.hrt.NodeState(n.hidx)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(core.State, len(n.state))
	copy(out, n.state)
	return out
}

// fieldAt returns the node's current approximation of field idx
// without copying the state vector (the cluster's ReduceField hot
// path). Only valid on real goroutine-mode nodes.
func (n *Node) fieldAt(idx int) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state[idx]
}

// Estimate returns the node's current approximation of the named field.
func (n *Node) Estimate(field string) (float64, error) {
	if n.hrt != nil {
		idx, err := n.hrt.schema.Index(field)
		if err != nil {
			return 0, err
		}
		return n.hrt.NodeState(n.hidx)[idx], nil
	}
	idx, err := n.cfg.Schema.Index(field)
	if err != nil {
		return 0, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state[idx], nil
}

// Epoch returns the node's current epoch identifier.
func (n *Node) Epoch() uint64 {
	if n.hrt != nil {
		return n.hrt.NodeEpoch(n.hidx)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tracker.Current()
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	if n.hrt != nil {
		return n.hrt.NodeStats(n.hidx)
	}
	return Stats{
		Initiated:     n.initiated.Load(),
		Replies:       n.replies.Load(),
		Timeouts:      n.timeouts.Load(),
		LateReplies:   n.lateReplies.Load(),
		Served:        n.served.Load(),
		EpochSwitches: n.epochSwitches.Load(),
		StaleDropped:  n.staleDropped.Load(),
		SendErrors:    n.sendErrors.Load(),
		BusyDropped:   n.busyDropped.Load(),
		PeerBusy:      n.peerBusy.Load(),
	}
}

// waitDuration draws one inter-exchange waiting time.
func (n *Node) waitDuration() time.Duration {
	if n.cfg.Wait == ExponentialWait {
		return time.Duration(n.rngAct.ExpFloat64() * float64(n.cfg.CycleLength))
	}
	return n.cfg.CycleLength
}

// activeLoop is the protocol's active thread (Figure 1, top half).
func (n *Node) activeLoop() {
	// Random initial phase in [0, Δt): nodes are autonomous (§1.1), and
	// desynchronized ticks avoid lockstep collisions where every push
	// finds its peer busy.
	timer := time.NewTimer(time.Duration(n.rngAct.Float64() * float64(n.cfg.CycleLength)))
	defer timer.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-timer.C:
		}
		if n.failed.Load() {
			// Crashed: keep the cadence ticking so a revive resumes
			// seamlessly, but skip epochs, view aging and initiation.
			timer.Reset(n.waitDuration())
			continue
		}
		n.checkLocalEpoch()
		if n.observes {
			// One gossip round has passed: age the membership view here,
			// not per message, so view lifetimes are measured in cycles
			// regardless of traffic volume.
			n.cfg.Sampler.Tick()
		}
		n.initiateExchange()
		timer.Reset(n.waitDuration())
	}
}

// checkLocalEpoch performs the node's own scheduled restart when the
// epoch clock has moved past the node's current epoch.
func (n *Node) checkLocalEpoch() {
	if n.cfg.Clock == nil {
		return
	}
	now := n.cfg.Clock.Current(time.Now())
	n.mu.Lock()
	if n.tracker.Observe(now) {
		n.state = n.initState(n.tracker.Current(), n.value)
		n.epochSwitches.Add(1)
	}
	n.mu.Unlock()
}

// initiateExchange performs one push(-pull) exchange with a random peer.
// The push's Fields buffer is drawn from the node's pool; ownership
// passes to the transport with the Send, and the inbound reply's buffer
// is recycled after the merge.
func (n *Node) initiateExchange() {
	peer, ok := n.cfg.Sampler.Sample(n.rngAct)
	if !ok || peer == n.addr {
		return
	}
	if !n.cfg.PushOnly {
		// Retire any reply a timed-out exchange left in the slot (its
		// pendingSeq load raced the timeout's reset).
		select {
		case stale := <-n.replyCh:
			n.absorb(stale, true)
		default:
		}
	}
	fields := n.pool.get()
	n.mu.Lock()
	if !n.cfg.PushOnly {
		// Set under the lock so the snapshot below and the busy flag are
		// atomic with respect to servePush's check.
		n.busy.Store(true)
		defer n.busy.Store(false)
	}
	ep := n.tracker.Current()
	copy(fields, n.state)
	if n.robustOn {
		n.sent = fields[0]
	}
	adv, advGossip, advAges := n.adv, n.advGossip, n.advAges
	n.mu.Unlock()

	msg := transport.Message{
		Kind:   transport.KindPush,
		Epoch:  ep,
		Seq:    n.seq.Add(1),
		Fields: fields,
	}
	if adv == 1+uint8(sim.AdvEclipse) {
		// Eclipse push: flood the victim's view with adversary addresses
		// at age 0 (the shared digest is immutable, so the
		// receiver-must-not-retain contract is moot).
		msg.Gossip, msg.GossipAges = advGossip, advAges
	} else if n.observes && n.cfg.GossipFanout > 0 {
		// The digest slices must be owned by the message: transports and
		// batchers retain messages by reference, so sender-side scratch
		// reuse is not possible here (see DESIGN.md "Membership").
		msg.Gossip, msg.GossipAges = n.cfg.Sampler.AppendDigest(nil, nil, n.rngAct, n.cfg.GossipFanout)
	}

	if !n.cfg.PushOnly {
		// Publish the new exchange's sequence number — from here on
		// routeReply admits only this exchange's reply.
		n.pendingSeq.Store(msg.Seq)
		defer n.pendingSeq.Store(0)
	}

	n.initiated.Add(1)
	if err := n.cfg.Endpoint.Send(peer, msg); err != nil {
		n.sendErrors.Add(1)
		n.cfg.Sampler.Forget(peer)
		return
	}
	if n.cfg.PushOnly {
		return
	}

	if n.replyTimer == nil {
		n.replyTimer = time.NewTimer(n.cfg.ReplyTimeout)
	} else {
		n.replyTimer.Reset(n.cfg.ReplyTimeout)
	}
	defer n.replyTimer.Stop()
	for {
		select {
		case reply := <-n.replyCh:
			if reply.Seq != msg.Seq {
				// A previous exchange's reply slipped past routeReply's
				// gate (its pendingSeq load raced our re-arming) and was
				// deposited after the drain above: a late reply.
				n.absorb(reply, true)
				continue
			}
			if reply.Kind == transport.KindNack {
				n.peerBusy.Add(1)
				n.pool.put(reply.Fields)
				return // peer declined; abort this exchange cleanly
			}
			n.absorb(reply, false)
			n.replies.Add(1)
			return
		case <-n.replyTimer.C:
			n.timeouts.Add(1)
			if n.observes {
				// Treat the missed deadline as a failure signal: drop the
				// peer from the view. A live-but-slow peer re-enters the
				// moment its next message is observed.
				n.cfg.Sampler.Forget(peer)
			}
			// The peer may have served the push already: its reply,
			// however late, still owes this node the transfer.
			n.mu.Lock()
			n.timedOut = seqRecord(msg.Seq)
			n.mu.Unlock()
			return
		case <-n.stop:
			return
		}
	}
}

// absorb folds a reply's transfer into the node's state, honoring epoch
// tags and the robust gate, and recycles the reply's buffer. late marks
// a reply whose exchange's deadline already fired: it applies only
// while its seq is in the timed-out record, and strikes it out, so at
// most once.
func (n *Node) absorb(m transport.Message, late bool) {
	defer n.pool.put(m.Fields)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.adv != 0 {
		return // adversaries never adopt merges
	}
	if late && (m.Kind != transport.KindReply || !n.timedOut.take(m.Seq)) {
		return
	}
	if n.tracker.Observe(m.Epoch) {
		n.state = n.initState(n.tracker.Current(), n.value)
		n.epochSwitches.Add(1)
		// The reply belongs to the new epoch we just joined; apply it.
	} else if !n.tracker.InSync(m.Epoch) {
		n.staleDropped.Add(1)
		return
	}
	if len(m.Fields) != len(n.state) {
		return // schema mismatch; drop defensively
	}
	if n.robustOn && !gateReply(n.robustCfg, &n.trim, n.cfg.Schema.Agg(0), n.sent, m.Fields) {
		// Active-side reject: the responder already committed its half,
		// so we can only drop our own (§3.2 asymmetry).
		n.robustRejected.Add(1)
		return
	}
	n.cfg.Schema.ApplyTransfer(n.state, core.State(m.Fields))
	if late {
		n.lateReplies.Add(1)
	}
}

// dispatch is the protocol's passive thread: it serves pushes and routes
// replies until the endpoint closes.
func (n *Node) dispatch() {
	for m := range n.cfg.Endpoint.Inbox() {
		if n.failed.Load() {
			// A crashed node neither serves nor absorbs: the sender's
			// exchange times out, as with a real process crash.
			n.pool.put(m.Fields)
			continue
		}
		switch m.Kind {
		case transport.KindPush:
			n.servePush(m)
		case transport.KindReply, transport.KindNack:
			n.routeReply(m)
		}
	}
}

// observe feeds a message's sender and piggybacked gossip to the
// sampler. Skipped entirely for directory samplers (global knowledge).
func (n *Node) observe(m *transport.Message) {
	if !n.observes || m.From == "" {
		return
	}
	n.cfg.Sampler.Observe(m.From, m.Gossip, m.GossipAges)
}

// servePush implements the passive half (Figure 1, bottom) in transfer
// form: adopt the merge and reply with the transfer the initiator adds
// to its state (core's MergeExchange). The node owns m.Fields
// (receiver-owns rule): a reply rewrites it in place into its payload,
// every other path recycles it.
func (n *Node) servePush(m transport.Message) {
	n.observe(&m)
	n.mu.Lock()
	if n.busy.Load() {
		// An own exchange is in flight: decline with a nack so the
		// initiator aborts immediately rather than burning its reply
		// timeout.
		ep := n.tracker.Current()
		n.mu.Unlock()
		n.busyDropped.Add(1)
		n.pool.put(m.Fields)
		if !n.cfg.PushOnly {
			nack := transport.Message{Kind: transport.KindNack, Epoch: ep, Seq: m.Seq}
			if err := n.cfg.Endpoint.Send(m.From, nack); err != nil {
				n.sendErrors.Add(1)
			}
		}
		return
	}
	if n.tracker.Observe(m.Epoch) {
		n.state = n.initState(n.tracker.Current(), n.value)
		n.epochSwitches.Add(1)
	} else if !n.tracker.InSync(m.Epoch) {
		n.mu.Unlock()
		n.staleDropped.Add(1)
		n.pool.put(m.Fields)
		return
	}
	if len(m.Fields) != len(n.state) {
		n.mu.Unlock()
		n.pool.put(m.Fields)
		return
	}
	if n.adv != 0 {
		// Byzantine responder: reply with the transfer the pinned state
		// implies, (pinned − a)/2, never adopt the merge (the
		// ack-then-discard of a selective dropper; the other behaviors
		// additionally pin the reported value).
		if n.cfg.PushOnly {
			n.mu.Unlock()
			n.served.Add(1)
			n.pool.put(m.Fields)
			return
		}
		pinned := n.pool.get()
		copy(pinned, n.state)
		n.cfg.Schema.MergeExchange(pinned, core.State(m.Fields))
		n.pool.put(pinned)
		ep := n.tracker.Current()
		eclipse := n.adv == 1+uint8(sim.AdvEclipse)
		advGossip, advAges := n.advGossip, n.advAges
		n.mu.Unlock()
		n.served.Add(1)
		reply := transport.Message{
			Kind:   transport.KindReply,
			Epoch:  ep,
			Seq:    m.Seq,
			Fields: m.Fields,
		}
		if eclipse {
			reply.Gossip, reply.GossipAges = advGossip, advAges
		}
		if err := n.cfg.Endpoint.Send(m.From, reply); err != nil {
			n.sendErrors.Add(1)
		}
		return
	}
	if n.robustOn {
		rep := n.robustCfg.ClampValue(m.Fields[0])
		m.Fields[0] = rep
		if n.robustCfg.Trim && !n.trim.Admit(rep-n.state[0], n.robustCfg.TrimK) {
			// Passive-side reject nacks the initiator so neither side
			// merges — the exchange never happened and mass is conserved.
			ep := n.tracker.Current()
			n.mu.Unlock()
			n.robustRejected.Add(1)
			n.pool.put(m.Fields)
			if !n.cfg.PushOnly {
				nack := transport.Message{Kind: transport.KindNack, Epoch: ep, Seq: m.Seq}
				if err := n.cfg.Endpoint.Send(m.From, nack); err != nil {
					n.sendErrors.Add(1)
				}
			}
			return
		}
	}
	if n.cfg.PushOnly {
		n.cfg.Schema.MergeInto(n.state, core.State(m.Fields))
		n.mu.Unlock()
		n.served.Add(1)
		n.pool.put(m.Fields)
		return
	}
	// One pass, zero copies: the state adopts the merge and the inbound
	// push buffer becomes the reply's transfer payload.
	n.cfg.Schema.MergeExchange(n.state, core.State(m.Fields))
	ep := n.tracker.Current()
	n.mu.Unlock()
	n.served.Add(1)

	reply := transport.Message{
		Kind:   transport.KindReply,
		Epoch:  ep,
		Seq:    m.Seq,
		Fields: m.Fields,
	}
	if n.observes && n.cfg.GossipFanout > 0 {
		reply.Gossip, reply.GossipAges = n.cfg.Sampler.AppendDigest(nil, nil, n.rngDisp, n.cfg.GossipFanout)
	}
	if err := n.cfg.Endpoint.Send(m.From, reply); err != nil {
		n.sendErrors.Add(1)
	}
}

// routeReply hands a reply to the waiting exchange, if still current;
// any other reply goes to absorb as late, which applies it only if its
// exchange timed out.
func (n *Node) routeReply(m transport.Message) {
	n.observe(&m)
	if m.Seq == 0 || m.Seq != n.pendingSeq.Load() {
		n.absorb(m, true) // seq 0 is never in flight
		return
	}
	select {
	case n.replyCh <- m:
	default:
		n.pool.put(m.Fields)
	}
}
