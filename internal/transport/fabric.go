package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xrand"
)

// FabricOption configures an in-memory Fabric.
type FabricOption func(*Fabric)

// WithLatency delays every delivery by base plus a uniform jitter in
// [0, jitter). Zero/zero (the default) delivers synchronously.
func WithLatency(base, jitter time.Duration) FabricOption {
	return func(f *Fabric) { f.latBase, f.latJitter = base, jitter }
}

// WithDropProbability makes the fabric lose each message independently
// with probability p — the message-loss model of experiment E6 applied to
// the live engine.
func WithDropProbability(p float64) FabricOption {
	return func(f *Fabric) { f.dropProb = p }
}

// WithInboxSize sets the per-endpoint inbox capacity. A full inbox drops
// the incoming message (UDP semantics), which keeps senders non-blocking;
// the default of 1024 is far above what the protocol's one-exchange-per-Δt
// rhythm can queue.
func WithInboxSize(n int) FabricOption {
	return func(f *Fabric) {
		if n > 0 {
			f.inboxSize = n
		}
	}
}

// WithSeed seeds the fabric's internal RNG (latency jitter and drops).
func WithSeed(seed uint64) FabricOption {
	return func(f *Fabric) { f.rng = xrand.New(seed) }
}

// Fabric is an in-memory message network. It is safe for concurrent use.
type Fabric struct {
	mu        sync.Mutex
	endpoints map[string]*memEndpoint
	filter    func(from, to string) bool
	rng       *xrand.Rand
	latBase   time.Duration
	latJitter time.Duration
	dropProb  float64
	inboxSize int
	nextAddr  int

	// Drop counters, read lock-free by the metrics layer. Both count
	// rare paths (loss model, partition filter, saturated inbox), so an
	// atomic add per drop costs nothing on the healthy path.
	lossDropped  atomic.Uint64
	inboxDropped atomic.Uint64

	// impaired mirrors "a filter, loss or latency is in force" for
	// lock-free readers (see Impaired); written under mu whenever one of
	// those models changes.
	impaired atomic.Bool
}

// NewFabric returns an empty in-memory network.
func NewFabric(opts ...FabricOption) *Fabric {
	f := &Fabric{
		endpoints: make(map[string]*memEndpoint),
		rng:       xrand.New(0x0ddba11),
		inboxSize: 1024,
	}
	for _, opt := range opts {
		opt(f)
	}
	f.updateImpaired()
	return f
}

// updateImpaired refreshes the impaired mirror. The caller holds f.mu
// (or owns f exclusively, during construction).
func (f *Fabric) updateImpaired() {
	f.impaired.Store(f.filter != nil || f.dropProb > 0 || f.latBase > 0 || f.latJitter > 0)
}

// Impaired reports, without locking, whether a partition filter, a loss
// probability or a latency is in force. While it is false the fabric
// delivers every message to an attached endpoint at once and intact, so
// a runtime that owns both ends may hand its messages over in-process
// instead; once it turns true every send must go through the fabric's
// models again.
func (f *Fabric) Impaired() bool { return f.impaired.Load() }

// SetFilter installs a reachability predicate evaluated on every send;
// a false return drops the message. Pass nil to clear. Partition tests
// use this to cut groups of nodes apart and heal them again.
func (f *Fabric) SetFilter(filter func(from, to string) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.filter = filter
	f.updateImpaired()
}

// SetDropProbability changes the loss model on a live fabric — the
// scenario-injection hook behind the serve layer's POST /v1/scenario.
// Safe to call while traffic flows; takes effect on the next delivery.
func (f *Fabric) SetDropProbability(p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropProb = p
	f.updateImpaired()
}

// DropProbability returns the loss probability currently in force.
func (f *Fabric) DropProbability() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropProb
}

// NewEndpoint attaches a new endpoint with a fabric-assigned address.
func (f *Fabric) NewEndpoint() Endpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	addr := fmt.Sprintf("mem-%d", f.nextAddr)
	f.nextAddr++
	ep := &memEndpoint{
		fabric: f,
		addr:   addr,
		inbox:  make(chan Message, f.inboxSize),
	}
	f.endpoints[addr] = ep
	return ep
}

// Endpoints returns the addresses currently attached, in no particular
// order — handy for bootstrapping samplers in tests and examples.
func (f *Fabric) Endpoints() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.endpoints))
	for addr := range f.endpoints {
		out = append(out, addr)
	}
	return out
}

// deliver routes one message, applying filter, loss and latency. It
// returns ErrPeerUnreachable when the destination does not exist (so the
// caller can treat it like a timeout), and nil when the message was
// dropped by the loss model — real networks don't report drops either.
func (f *Fabric) deliver(from, to string, m Message) error {
	f.mu.Lock()
	if f.filter != nil && !f.filter(from, to) {
		f.mu.Unlock()
		f.lossDropped.Add(1)
		return nil
	}
	if f.dropProb > 0 && f.rng.Bool(f.dropProb) {
		f.mu.Unlock()
		f.lossDropped.Add(1)
		return nil
	}
	dst, ok := f.lookup(to)
	var delay time.Duration
	if ok && (f.latBase > 0 || f.latJitter > 0) {
		delay = f.latBase
		if f.latJitter > 0 {
			delay += time.Duration(f.rng.Float64() * float64(f.latJitter))
		}
	}
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrPeerUnreachable, to)
	}
	if delay > 0 {
		time.AfterFunc(delay, func() { dst.enqueue(m) })
		return nil
	}
	dst.enqueue(m)
	return nil
}

// deliverBatch routes several messages to one destination, applying the
// filter once and the loss model per message (batching must not change
// loss semantics). All survivors share one drawn latency so the batch
// arrives in order, like one framed packet on a real network.
//
// The slice ms is never retained past the call (BatchSender contract:
// callers recycle it), but the messages themselves — including their
// Fields/Gossip backing arrays — are handed to the receiver by
// reference: the fabric is a zero-copy transport, and buffer ownership
// passes from sender to receiver. A dropped message's buffers are
// simply abandoned to the garbage collector.
func (f *Fabric) deliverBatch(from, to string, ms []Message) error {
	f.mu.Lock()
	if f.filter != nil && !f.filter(from, to) {
		f.mu.Unlock()
		f.lossDropped.Add(uint64(len(ms)))
		return nil
	}
	dst, ok := f.lookup(to)
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrPeerUnreachable, to)
	}
	survivors := ms
	detached := false // survivors no longer aliases the caller's ms
	if f.dropProb > 0 {
		survivors = make([]Message, 0, len(ms))
		detached = true
		for _, m := range ms {
			if !f.rng.Bool(f.dropProb) {
				survivors = append(survivors, m)
			}
		}
		f.lossDropped.Add(uint64(len(ms) - len(survivors)))
	}
	var delay time.Duration
	if f.latBase > 0 || f.latJitter > 0 {
		delay = f.latBase
		if f.latJitter > 0 {
			delay += time.Duration(f.rng.Float64() * float64(f.latJitter))
		}
	}
	f.mu.Unlock()
	if len(survivors) == 0 {
		return nil
	}
	if delay > 0 {
		batch := survivors
		if !detached {
			// The caller recycles ms as soon as we return; a delayed
			// delivery must hold its own copy of the message values.
			batch = append([]Message(nil), survivors...)
		}
		time.AfterFunc(delay, func() { dst.enqueueAll(batch) })
		return nil
	}
	dst.enqueueAll(survivors)
	return nil
}

// lookup resolves an address to its endpoint, falling back to the base
// address for multiplexed sub-addresses ("mem-0#17" → "mem-0"). The
// caller must hold f.mu.
func (f *Fabric) lookup(to string) (*memEndpoint, bool) {
	if dst, ok := f.endpoints[to]; ok {
		return dst, true
	}
	if base := BaseAddr(to); base != to {
		dst, ok := f.endpoints[base]
		return dst, ok
	}
	return nil, false
}

// LossDropped returns how many messages the loss model or a partition
// filter swallowed.
func (f *Fabric) LossDropped() uint64 { return f.lossDropped.Load() }

// InboxDropped returns how many messages were dropped on a full
// endpoint inbox (UDP semantics under saturation).
func (f *Fabric) InboxDropped() uint64 { return f.inboxDropped.Load() }

// detach removes an endpoint from the routing table.
func (f *Fabric) detach(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.endpoints, addr)
}

// memEndpoint is one attachment to a Fabric.
type memEndpoint struct {
	fabric *Fabric
	addr   string

	mu     sync.Mutex
	closed bool
	inbox  chan Message
}

var (
	_ Endpoint    = (*memEndpoint)(nil)
	_ BatchSender = (*memEndpoint)(nil)
)

// Addr implements Endpoint.
func (e *memEndpoint) Addr() string { return e.addr }

// Send implements Endpoint. From is stamped with the endpoint address
// unless the caller already set a finer-grained sub-address (multiplexed
// runtimes address individual nodes behind one endpoint); To records the
// caller's destination so such runtimes can demultiplex.
func (e *memEndpoint) Send(to string, m Message) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.mu.Unlock()
	if m.From == "" {
		m.From = e.addr
	}
	if m.To == "" {
		m.To = to
	}
	return e.fabric.deliver(e.addr, to, m)
}

// SendBatch implements BatchSender: one routing decision, per-message
// loss, in-order delivery.
func (e *memEndpoint) SendBatch(to string, ms []Message) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.mu.Unlock()
	for i := range ms {
		if ms[i].From == "" {
			ms[i].From = e.addr
		}
		if ms[i].To == "" {
			ms[i].To = to
		}
	}
	return e.fabric.deliverBatch(e.addr, to, ms)
}

// Inbox implements Endpoint.
func (e *memEndpoint) Inbox() <-chan Message { return e.inbox }

// enqueue appends to the inbox, dropping when full or closed.
func (e *memEndpoint) enqueue(m Message) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	select {
	case e.inbox <- m:
	default: // inbox overflow: drop, like a saturated socket buffer
		e.fabric.inboxDropped.Add(1)
	}
}

// enqueueAll appends a whole batch under one lock acquisition — the
// receiving endpoint's cost of a cross-shard batch frame is one mutex
// round-trip, not one per message. Per-message drop semantics (full
// inbox, closed endpoint) are identical to enqueue.
func (e *memEndpoint) enqueueAll(ms []Message) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	for _, m := range ms {
		select {
		case e.inbox <- m:
		default: // inbox overflow: drop, like a saturated socket buffer
			e.fabric.inboxDropped.Add(1)
		}
	}
}

// Close implements Endpoint. It is idempotent.
func (e *memEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.inbox)
	e.mu.Unlock()
	e.fabric.detach(e.addr)
	return nil
}
