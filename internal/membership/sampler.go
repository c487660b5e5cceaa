package membership

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/xrand"
)

// Sampler is the neighbor-selection interface the asynchronous engine
// consumes: one random peer per exchange, plus hooks to learn addresses
// from observed traffic and to emit a digest for piggybacked membership
// gossip. Implementations must be safe for concurrent use.
type Sampler interface {
	// Sample returns a uniformly random known peer; ok is false when no
	// peer is known yet.
	Sample(rng *xrand.Rand) (addr string, ok bool)
	// Observe feeds addresses learned from one incoming message: from is
	// the sender (freshest possible information, age 0) and addrs/ages
	// its piggybacked digest. ages may be nil or shorter than addrs, in
	// which case missing entries count as one exchange old. Observe must
	// not retain addrs or ages and must not allocate in steady state —
	// it sits on the per-message hot path.
	Observe(from string, addrs []string, ages []uint32)
	// AppendDigest appends up to k peers (with their ages) to addrs/ages
	// and returns the extended slices, in the append-style of the
	// transport codecs so callers can reuse buffers across exchanges.
	AppendDigest(addrs []string, ages []uint32, rng *xrand.Rand, k int) ([]string, []uint32)
	// Tick advances the sampler's notion of time by one gossip round
	// (one Δt cycle). Entry aging happens here — NOT per message — so
	// view lifetimes are measured in rounds regardless of message rate.
	Tick()
	// Forget drops an address observed to be dead (send failure or
	// exchange timeout).
	Forget(addr string)
}

// ErrNoPeers is returned by constructors handed an empty peer set.
var ErrNoPeers = errors.New("membership: no peers")

// Static samples from a fixed peer list — the engine's equivalent of a
// fixed overlay topology. Observe, Tick and Forget are no-ops: the list
// is the configuration.
type Static struct {
	mu    sync.RWMutex
	addrs []string
}

var _ Sampler = (*Static)(nil)

// NewStatic returns a sampler over a copy of addrs.
func NewStatic(addrs []string) (*Static, error) {
	if len(addrs) == 0 {
		return nil, ErrNoPeers
	}
	cp := make([]string, len(addrs))
	copy(cp, addrs)
	return &Static{addrs: cp}, nil
}

// Sample implements Sampler.
func (s *Static) Sample(rng *xrand.Rand) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.addrs) == 0 {
		return "", false
	}
	return s.addrs[rng.Intn(len(s.addrs))], true
}

// Observe implements Sampler (no-op for a static peer list).
func (s *Static) Observe(string, []string, []uint32) {}

// AppendDigest implements Sampler. Static entries carry no age
// information, so every appended age is 0.
func (s *Static) AppendDigest(addrs []string, ages []uint32, rng *xrand.Rand, k int) ([]string, []uint32) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.addrs)
	if k > n {
		k = n
	}
	if k <= 0 {
		return addrs, ages
	}
	if k == n {
		for _, a := range s.addrs {
			addrs = append(addrs, a)
			ages = append(ages, 0)
		}
		return addrs, ages
	}
	if n <= 64 {
		// Rejection sampling over a bitmask: alloc-free for the small
		// peer lists that ride the hot path (cf. xrand.SampleDistinct,
		// which allocates its bookkeeping).
		var picked uint64
		for c := 0; c < k; {
			i := rng.Intn(n)
			if picked&(1<<uint(i)) != 0 {
				continue
			}
			picked |= 1 << uint(i)
			addrs = append(addrs, s.addrs[i])
			ages = append(ages, 0)
			c++
		}
		return addrs, ages
	}
	for _, i := range rng.SampleDistinct(n, k, -1) {
		addrs = append(addrs, s.addrs[i])
		ages = append(ages, 0)
	}
	return addrs, ages
}

// Tick implements Sampler (no-op: static entries do not age).
func (s *Static) Tick() {}

// Forget implements Sampler (no-op: static configuration is never pruned).
func (s *Static) Forget(string) {}

// maxRoundSenders bounds the per-round sender-budget table. Honest
// nodes hear from a handful of distinct senders per gossip round;
// a flood from more addresses than this lands in a shared overflow
// budget, which is exactly the conservative treatment a spray deserves.
const maxRoundSenders = 64

// senderBudget tracks how many previously-unknown addresses one sender
// has inserted into the view this round. Senders are identified by
// address hash; a collision merely shares a budget (conservative).
type senderBudget struct {
	hash uint64
	used int
}

// GossipSampler maintains a Newscast-style view fed by piggybacked
// membership gossip: every observed sender enters at age 0, digest
// entries enter one hop older than the sender knew them, and Tick ages
// the whole view once per gossip round so dead peers wash out while live
// peers are continually refreshed by traffic.
//
// Eclipse hardening: a single sender may insert at most capacity/2
// previously-unknown addresses per gossip round. An attacker flooding
// age-0 digests of colluding addresses can therefore replace at most
// half a victim's view per round and per adversary contact, instead of
// wiping it with one message — honest traffic keeps re-inserting real
// peers in the meantime. The sender's own address is first-hand
// evidence and is never budgeted; neither are age refreshes of
// addresses already in the view.
type GossipSampler struct {
	self string

	mu        sync.Mutex
	view      *View
	insertCap int
	round     []senderBudget // per-sender budgets, reset by Tick
	overflow  senderBudget   // shared budget once round is full
	// roundBuf backs round until a round hears from more inserting
	// senders than it holds, so the usual handful costs no allocation.
	roundBuf [8]senderBudget

	// Lock-free mirrors for telemetry scrapes (see engine metrics
	// registration): the gauge/counter readers must not contend with the
	// per-message Observe path.
	viewLen    atomic.Int64
	observed   atomic.Uint64
	forgotten  atomic.Uint64
	ticks      atomic.Uint64
	overBudget atomic.Uint64
}

var _ Sampler = (*GossipSampler)(nil)

// NewGossipSampler returns a sampler for the node at self, bootstrapped
// from seeds. With no seed other than self the view starts empty: Sample
// finds no peer until an inbound message's Observe fills the view.
func NewGossipSampler(self string, capacity int, seeds []string) (*GossipSampler, error) {
	v := NewView(capacity)
	for _, s := range seeds {
		if s != self && s != "" {
			h := addrHash(s)
			v.upsert(v.find(s, h), s, 0, h)
		}
	}
	v.settle()
	insertCap := capacity / 2
	if insertCap < 1 {
		insertCap = 1
	}
	g := &GossipSampler{self: self, view: v, insertCap: insertCap}
	g.round = g.roundBuf[:0]
	g.viewLen.Store(int64(v.Len()))
	return g, nil
}

// budgetFor returns the round budget for the sender whose address
// hashes to h, creating it on first use. Must be called with mu held.
func (g *GossipSampler) budgetFor(h uint64) *senderBudget {
	for i := range g.round {
		if g.round[i].hash == h {
			return &g.round[i]
		}
	}
	if len(g.round) < maxRoundSenders {
		g.round = append(g.round, senderBudget{hash: h})
		return &g.round[len(g.round)-1]
	}
	return &g.overflow
}

// Sample implements Sampler.
func (g *GossipSampler) Sample(rng *xrand.Rand) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.view.Sample(rng)
}

// Observe implements Sampler: the sender is inserted fresh (age 0) and
// each digest entry one hop older than the peer advertised it. Aging is
// Tick's job, not Observe's — at heap-runtime rates (10⁵+ msgs/s) aging
// per message would push live peers past any capacity-8 view within
// milliseconds.
func (g *GossipSampler) Observe(from string, addrs []string, ages []uint32) {
	if from == "" && len(addrs) == 0 {
		return
	}
	g.mu.Lock()
	v := g.view
	// Entries at or beyond known were appended by this very message: for
	// the insertion budget they still count as unknown, exactly as when
	// the digest was checked against the view before any of it merged.
	known := len(v.entries)
	fromHash := addrHash(from)
	if from != "" && from != g.self {
		v.upsert(v.find(from, fromHash), from, 0, fromHash) // first-hand; never budgeted
	}
	var budget *senderBudget
	dropped := uint64(0)
	for i, a := range addrs {
		if a == "" || a == g.self {
			continue
		}
		// One hash and one scan per digest entry: the position found here
		// both answers the budget question and addresses the update.
		h := addrHash(a)
		at := v.find(a, h)
		if at < 0 || at >= known {
			// Previously unknown: charge the sender's round budget. The
			// lookup is lazy so digests that only refresh known peers
			// (the steady state) never touch the budget table.
			if budget == nil {
				budget = g.budgetFor(fromHash)
			}
			if budget.used >= g.insertCap {
				dropped++
				continue
			}
			budget.used++
		}
		age := uint32(1)
		if i < len(ages) && ages[i] < ^uint32(0) {
			age = ages[i] + 1
		}
		v.upsert(at, a, age, h)
	}
	v.settle()
	g.viewLen.Store(int64(g.view.Len()))
	g.mu.Unlock()
	g.observed.Add(1)
	if dropped != 0 {
		g.overBudget.Add(dropped)
	}
}

// AppendDigest implements Sampler.
func (g *GossipSampler) AppendDigest(addrs []string, ages []uint32, rng *xrand.Rand, k int) ([]string, []uint32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.view.AppendDigest(addrs, ages, rng, k)
}

// Tick implements Sampler: ages every entry by one gossip round and
// resets the per-sender insertion budgets.
func (g *GossipSampler) Tick() {
	g.mu.Lock()
	g.view.AgeAll()
	g.round = g.round[:0]
	g.overflow.used = 0
	g.mu.Unlock()
	g.ticks.Add(1)
}

// Forget implements Sampler.
func (g *GossipSampler) Forget(addr string) {
	g.mu.Lock()
	removed := g.view.Remove(addr)
	if removed {
		g.viewLen.Store(int64(g.view.Len()))
	}
	g.mu.Unlock()
	if removed {
		g.forgotten.Add(1)
	}
}

// ViewSize returns the current view occupancy without taking the view
// lock — safe to call from telemetry scrape paths.
func (g *GossipSampler) ViewSize() int { return int(g.viewLen.Load()) }

// ObservedTotal returns the number of Observe calls that fed the view
// (one per incoming message carrying membership information).
func (g *GossipSampler) ObservedTotal() uint64 { return g.observed.Load() }

// ForgottenTotal returns the number of addresses dropped as dead.
func (g *GossipSampler) ForgottenTotal() uint64 { return g.forgotten.Load() }

// InsertsDroppedTotal returns the number of digest entries refused
// because their sender exhausted its per-round insertion budget — a
// sustained non-zero rate is the signature of a digest-flooding
// eclipse attempt.
func (g *GossipSampler) InsertsDroppedTotal() uint64 { return g.overBudget.Load() }

// ViewAddrs returns the current view contents (diagnostics and tests).
func (g *GossipSampler) ViewAddrs() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.view.Addrs()
}
