package sim

import (
	"errors"
	"fmt"

	"repro/internal/topology"
	"repro/internal/xrand"
)

// Selector is the GETPAIR abstraction of Figure 2. A cycle consists of
// exactly g.Size() calls to NextPair, preceded by one BeginCycle call.
// This package provides the four selectors analyzed in Section 3.3:
//
//   - PM      — two disjoint perfect matchings per cycle (optimal, rate 1/4)
//   - Rand    — uniformly random edge per step (rate 1/e)
//   - Seq     — fixed node order, random neighbor each (rate ≈ 1/(2√e))
//   - PMRand  — one perfect matching then N/2 random edges (the analytical
//     proxy the paper substitutes for Seq, exact rate 1/(2√e))
//
// Selectors are stateful and bound to one graph at a time via Bind;
// they are not safe for concurrent use.
type Selector interface {
	// Bind attaches the selector to a graph and RNG, resetting all state.
	// Selectors that need global structure (perfect matchings) may reject
	// graphs they cannot support.
	Bind(g topology.Graph, rng *xrand.Rand) error
	// BeginCycle prepares per-cycle state (e.g. fresh matchings).
	BeginCycle()
	// NextPair returns the next pair (i, j), i ≠ j, to average.
	NextPair() (i, j int)
	// Name returns the selector's label used in experiment output.
	Name() string
}

// ErrNeedsCompleteGraph is returned by Bind when a selector requiring
// global knowledge (PM, PMRand) is bound to a non-complete topology. The
// paper defines perfect-matching selection only as a reference point on
// the complete graph, where disjoint matchings always exist.
var ErrNeedsCompleteGraph = errors.New("sim: selector requires the complete graph")

// ErrOddSize is returned when a perfect-matching selector is bound to a
// graph with an odd number of nodes.
var ErrOddSize = errors.New("sim: perfect matching requires an even node count")

// NewSelector returns a fresh selector by name: "pm", "rand", "seq" or
// "pmrand". Unknown names return an error listing the options, so CLI
// flag handling stays in one place.
func NewSelector(name string) (Selector, error) {
	switch name {
	case "pm":
		return NewPM(), nil
	case "rand":
		return NewRand(), nil
	case "seq":
		return NewSeq(), nil
	case "pmrand":
		return NewPMRand(), nil
	default:
		return nil, fmt.Errorf("sim: unknown selector %q (want pm, rand, seq or pmrand)", name)
	}
}

// TheoreticalRate returns the closed-form per-cycle variance reduction
// rate E(2^{-φ}) the paper derives for each selector on the complete
// graph: 1/4 for pm (eq. 8), 1/e for rand (eq. 10) and 1/(2√e) for seq
// and pmrand (eq. 12). ok is false for selectors without a closed form.
func TheoreticalRate(name string) (rate float64, ok bool) {
	switch name {
	case "pm":
		return 0.25, true
	case "rand":
		return 0.36787944117144233, true // 1/e
	case "seq", "pmrand":
		return 0.3032653298563167, true // 1/(2√e)
	default:
		return 0, false
	}
}

// Rand selects a uniformly random edge of the overlay each step
// (GETPAIR_RAND, §3.3.2). On the complete graph every unordered pair is
// equally likely; on a regular graph, sampling a random node and then a
// random neighbor is uniform over directed edges, hence uniform over
// undirected edges as well.
type Rand struct {
	g   topology.Graph
	rng *xrand.Rand
}

var _ Selector = (*Rand)(nil)

// NewRand returns an unbound random-edge selector.
func NewRand() *Rand { return &Rand{} }

// Bind implements Selector.
func (s *Rand) Bind(g topology.Graph, rng *xrand.Rand) error {
	s.g, s.rng = g, rng
	return nil
}

// BeginCycle implements Selector (no per-cycle state).
func (s *Rand) BeginCycle() {}

// NextPair implements Selector.
func (s *Rand) NextPair() (int, int) {
	for {
		i := s.rng.Intn(s.g.Size())
		if j, ok := s.g.RandomNeighbor(i, s.rng); ok {
			return i, j
		}
	}
}

// Name implements Selector.
func (s *Rand) Name() string { return "rand" }

// Seq iterates over the node set in a fixed order, pairing each node with
// one of its random neighbors (GETPAIR_SEQ, §3.3.3). This is the pair
// sequence the practical distributed protocol induces: every node
// initiates exactly once per cycle.
type Seq struct {
	g    topology.Graph
	rng  *xrand.Rand
	next int
}

var _ Selector = (*Seq)(nil)

// NewSeq returns an unbound sequential selector.
func NewSeq() *Seq { return &Seq{} }

// Bind implements Selector.
func (s *Seq) Bind(g topology.Graph, rng *xrand.Rand) error {
	s.g, s.rng, s.next = g, rng, 0
	return nil
}

// BeginCycle restarts the fixed iteration order.
func (s *Seq) BeginCycle() { s.next = 0 }

// NextPair implements Selector.
func (s *Seq) NextPair() (int, int) {
	n := s.g.Size()
	for {
		i := s.next % n
		s.next++
		if j, ok := s.g.RandomNeighbor(i, s.rng); ok {
			return i, j
		}
	}
}

// Name implements Selector.
func (s *Seq) Name() string { return "seq" }

// PM returns pairs from two disjoint perfect matchings per cycle
// (GETPAIR_PM, §3.3.1): the first N/2 calls enumerate matching one, the
// next N/2 calls enumerate a second matching sharing no pair with the
// first, so every node is selected exactly twice per cycle (φ ≡ 2) — the
// optimum of Lemma 2.
type PM struct {
	g    topology.Graph
	rng  *xrand.Rand
	pos  int     // next pair index within the current double matching
	both []int32 // first ++ second, rebuilt each cycle
}

var _ Selector = (*PM)(nil)

// NewPM returns an unbound perfect-matching selector.
func NewPM() *PM { return &PM{} }

// Bind implements Selector. PM requires the complete graph with an
// even node count.
func (s *PM) Bind(g topology.Graph, rng *xrand.Rand) error {
	if _, ok := g.(*topology.Complete); !ok {
		return fmt.Errorf("%w (got %q)", ErrNeedsCompleteGraph, g.Name())
	}
	if g.Size()%2 != 0 {
		return fmt.Errorf("%w (n=%d)", ErrOddSize, g.Size())
	}
	s.g, s.rng = g, rng
	s.both = nil
	return nil
}

// BeginCycle draws two disjoint random perfect matchings.
func (s *PM) BeginCycle() {
	n := s.g.Size()
	if cap(s.both) < 2*n {
		s.both = make([]int32, 2*n)
	}
	s.both = s.both[:2*n]
	first := s.both[:n]
	second := s.both[n:]
	randomMatching(first, s.rng)
	drawDisjointMatching(second, first, s.rng)
	s.pos = 0
}

// NextPair implements Selector.
func (s *PM) NextPair() (int, int) {
	p := s.pos % len(s.both)
	s.pos += 2
	return int(s.both[p]), int(s.both[p+1])
}

// Name implements Selector.
func (s *PM) Name() string { return "pm" }

// PMRand behaves like PM for the first N/2 calls of a cycle and like Rand
// for the remaining N/2 (GETPAIR_PMRAND, §3.3.3). Its per-cycle selection
// count is φ = 1 + Poisson(1), the distribution the paper uses to derive
// the 1/(2√e) rate it then attributes to Seq.
type PMRand struct {
	g        topology.Graph
	rng      *xrand.Rand
	matching []int32
	pos      int
	calls    int
}

var _ Selector = (*PMRand)(nil)

// NewPMRand returns an unbound PM-then-random selector.
func NewPMRand() *PMRand { return &PMRand{} }

// Bind implements Selector. PMRand requires the complete graph with
// an even node count (for its matching half).
func (s *PMRand) Bind(g topology.Graph, rng *xrand.Rand) error {
	if _, ok := g.(*topology.Complete); !ok {
		return fmt.Errorf("%w (got %q)", ErrNeedsCompleteGraph, g.Name())
	}
	if g.Size()%2 != 0 {
		return fmt.Errorf("%w (n=%d)", ErrOddSize, g.Size())
	}
	s.g, s.rng = g, rng
	s.matching = nil
	return nil
}

// BeginCycle draws a fresh perfect matching and resets the call counter.
func (s *PMRand) BeginCycle() {
	n := s.g.Size()
	if cap(s.matching) < n {
		s.matching = make([]int32, n)
	}
	s.matching = s.matching[:n]
	randomMatching(s.matching, s.rng)
	s.pos, s.calls = 0, 0
}

// NextPair implements Selector.
func (s *PMRand) NextPair() (int, int) {
	n := s.g.Size()
	s.calls++
	if s.calls <= n/2 {
		p := s.pos
		s.pos += 2
		return int(s.matching[p]), int(s.matching[p+1])
	}
	i := s.rng.Intn(n)
	j, _ := s.g.RandomNeighbor(i, s.rng)
	return i, j
}

// Name implements Selector.
func (s *PMRand) Name() string { return "pmrand" }

// randomMatching fills out with a random permutation of 0..len(out)-1;
// consecutive entries (2t, 2t+1) form the matched pairs.
func randomMatching(out []int32, rng *xrand.Rand) {
	for i := range out {
		out[i] = int32(i)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
}

// drawDisjointMatching fills out with a random perfect matching sharing
// no pair with avoid (both flattened as consecutive pairs). It draws a
// random matching and repairs collisions with random pair swaps, which
// terminates quickly because the expected number of collisions between
// two random matchings is ~1/2 regardless of n.
func drawDisjointMatching(out, avoid []int32, rng *xrand.Rand) {
	n := len(out)
	avoidKey := make(map[int64]struct{}, n/2)
	key := func(u, v int32) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	for p := 0; p < n; p += 2 {
		avoidKey[key(avoid[p], avoid[p+1])] = struct{}{}
	}
	randomMatching(out, rng)
	for {
		collision := -1
		for p := 0; p < n; p += 2 {
			if _, hit := avoidKey[key(out[p], out[p+1])]; hit {
				collision = p
				break
			}
		}
		if collision < 0 {
			return
		}
		// Swap the collision's second element with another random pair's
		// second element; both pairs change so the collision dissolves
		// with probability close to 1.
		other := 2 * rng.Intn(n/2)
		if other == collision {
			continue
		}
		out[collision+1], out[other+1] = out[other+1], out[collision+1]
	}
}
