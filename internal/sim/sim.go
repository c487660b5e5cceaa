// Package sim is the unified simulation kernel behind every exchange
// loop in this repository. The paper's entire contribution is one
// elementary step — replace (x_i, x_j) with AGGREGATE(x_i, x_j) — and
// this package implements that step exactly once, over a flat
// structure-of-arrays state (one []float64 column per gossiped field,
// no per-node heap objects), composed with five orthogonal axes:
//
//   - Selector — the GETPAIR abstraction of Figure 2 (pm, rand, seq,
//     pmrand; §3.3), driving cycle-based execution.
//   - WaitPolicy — the GETWAITINGTIME abstraction of Figure 1
//     (constant or exponential Δt; §1.1), driving event-based
//     execution via RunEvents.
//   - LossModel — lossless, symmetric whole-exchange loss, or the
//     deployed protocol's asymmetric reply loss (§2, experiment E6).
//   - ChurnSchedule — per-cycle node removal/addition adapting
//     internal/churn (§4's dynamic membership).
//   - topology.Graph — the overlay; nil means the dynamic complete
//     graph over the current live node set (ideal peer sampling),
//     which is the only topology that composes with churn.
//
// Every simulation runs on this kernel: the scenario engine builds it
// from a Spec, and epoch's size simulation adapts it to §4's epochs. In
// single-shard mode the kernel consumes its RNG in exactly the order
// the pre-kernel exchange loops did, so fixed seeds reproduce their
// trajectories bit for bit.
//
// For throughput, Config.Shards > 1 switches Cycle to a sharded
// executor that partitions the N elementary steps of a cycle across
// workers with per-shard RNG streams (see shard.go). Sharded runs are
// deterministic for a fixed seed and shard count, and statistically
// indistinguishable from — but not bit-identical to — sequential runs.
// The exception is the pm selector, whose matching-based parallel
// generator reproduces the single-shard trajectory bit for bit.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/robust"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Op is an elementary merge operator applied field-wise during an
// exchange. Both peers adopt the merged value (the paper's symmetric
// AGGREGATE), so every Op must be commutative.
type Op uint8

// Supported elementary merge operators.
const (
	// OpAvg replaces both approximations with their mean — the
	// variance-reduction step of Figure 2 and the basis of every
	// derived aggregate (counting, sums, variance via moments).
	OpAvg Op = iota
	// OpMin spreads the minimum epidemically.
	OpMin
	// OpMax spreads the maximum epidemically.
	OpMax
)

// String returns the operator's lowercase name.
func (o Op) String() string {
	switch o {
	case OpAvg:
		return "avg"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// merge applies the operator to one pair of field values.
func (o Op) merge(x, y float64) float64 {
	switch o {
	case OpMin:
		if x < y {
			return x
		}
		return y
	case OpMax:
		if x > y {
			return x
		}
		return y
	default:
		return (x + y) / 2
	}
}

// AutoShards selects one shard per GOMAXPROCS worker.
const AutoShards = -1

// Config assembles a Kernel from the orthogonal axes. The zero value
// of every field selects the paper's defaults: complete overlay, seq
// pairing, lossless exchanges, no churn, exact sequential execution.
type Config struct {
	// Graph is the overlay. nil selects the dynamic complete graph
	// over the current live node set, the only overlay that supports
	// Resize/RemoveNode churn.
	Graph topology.Graph
	// Size is the node count when Graph is nil (ignored otherwise).
	Size int
	// Ops lists the per-field merge operators; nil means a single
	// average field (the protocol the paper analyzes).
	Ops []Op
	// Selector is the GETPAIR implementation for cycle-based runs;
	// nil selects GETPAIR_SEQ, the practical protocol's pair stream.
	Selector Selector
	// Wait enables event-based execution via RunEvents.
	Wait WaitPolicy
	// Loss is the message-loss model; nil means lossless.
	Loss LossModel
	// Churn, when non-nil, is applied by Run before every cycle.
	Churn ChurnSchedule
	// Join supplies field f's initial value for nodes added by churn
	// (nil initializes joiners to zero, the §4 indicator convention).
	Join func(f int) float64
	// Shards selects the executor: ≤1 runs the exact sequential path,
	// >1 the sharded structure-of-arrays executor, AutoShards one
	// shard per GOMAXPROCS worker.
	Shards int
	// CountPhi tallies per-node selection counts each cycle (the
	// random variable φ of Theorem 1), retrievable via PhiCounts.
	CountPhi bool
	// RNG is the master random stream; nil derives one from Seed.
	RNG *xrand.Rand
	// Seed seeds a fresh stream when RNG is nil.
	Seed uint64
}

// Kernel is the simulation engine: a flat structure-of-arrays state
// (cols[f][i] is node i's approximation of field f) plus the composed
// axes. Kernels are not safe for concurrent use; the sharded executor
// manages its own worker parallelism internally.
type Kernel struct {
	graph topology.Graph
	dyn   bool // graph is the dynamic complete overlay
	n     int
	ops   []Op
	cols  [][]float64

	sel   Selector
	wait  WaitPolicy
	loss  LossModel
	churn ChurnSchedule
	join  func(f int) float64
	rng   *xrand.Rand

	phi   []int
	cycle int

	evh *EventHeap // RunEvents schedule, reused across runs

	shards int
	sh     *sharder

	// Adversary axis (SetAdversaries): adv marks Byzantine nodes, which
	// never adopt a merge and always report their current (pinned)
	// column values; advNodes lists their indices for eclipse
	// redirection; eclipsed marks honest victims whose partner draws an
	// eclipse adversary has captured.
	adv        []uint8
	advNodes   []int32
	advEclipse bool
	eclipsed   []uint8

	// Robust countermeasures (SetRobust): clamp/trim policy, per-node
	// trim acceptance bands, and the rejected-exchange counter (atomic:
	// the sharded executor's workers increment it concurrently).
	robust   robust.Policy
	robustOn bool
	trim     []robust.TrimState
	rejected atomic.Uint64
}

// AdversaryBehavior selects what a Byzantine node does with the
// protocol. All behaviors share one mechanic — the adversary never
// adopts a merge and always reports its current column values — and
// differ in what those values are pinned to (and, for eclipse, in the
// membership poison layered on top).
type AdversaryBehavior uint8

const (
	// AdvExtreme pins the adversary's field-0 report to an extreme
	// magnitude — the classical poisoning attack on mass conservation.
	AdvExtreme AdversaryBehavior = iota
	// AdvColluding pins every adversary to one shared target value,
	// dragging the converged estimate toward it without obvious
	// outliers.
	AdvColluding
	// AdvSelectiveDrop keeps the honestly drawn value but acks and
	// discards every merge: the node looks alive and serves plausible
	// state, yet leaks mass asymmetry into every exchange it serves.
	AdvSelectiveDrop
	// AdvEclipse pins like colluding and additionally captures honest
	// partners: once a victim exchanges with an eclipse node, the
	// victim's subsequent partner draws are redirected to uniformly
	// random adversaries — the kernel model of a flooded gossip view.
	AdvEclipse
)

// dynComplete is the complete graph over a kernel's current live node
// set: Size tracks churn, sampling matches topology.Complete exactly.
type dynComplete struct {
	k *Kernel
}

var _ topology.Graph = dynComplete{}

// Size implements topology.Graph.
func (g dynComplete) Size() int { return g.k.n }

// Degree implements topology.Graph.
func (g dynComplete) Degree(int) int { return g.k.n - 1 }

// Neighbor implements topology.Graph.
func (g dynComplete) Neighbor(i, k int) int {
	if k < i {
		return k
	}
	return k + 1
}

// RandomNeighbor implements topology.Graph with the same draw sequence
// as topology.Complete: one Intn(n-1) per sample.
func (g dynComplete) RandomNeighbor(i int, rng *xrand.Rand) (int, bool) {
	n := g.k.n
	if n < 2 {
		return 0, false
	}
	j := rng.Intn(n - 1)
	if j >= i {
		j++
	}
	return j, true
}

// Name implements topology.Graph.
func (g dynComplete) Name() string { return "dynamic-complete" }

// New builds a Kernel. All columns start at zero; load initial values
// with SetValues (or Column) before running.
func New(cfg Config) (*Kernel, error) {
	k := &Kernel{
		wait:  cfg.Wait,
		loss:  cfg.Loss,
		churn: cfg.Churn,
		join:  cfg.Join,
		rng:   cfg.RNG,
	}
	if k.rng == nil {
		k.rng = xrand.New(cfg.Seed)
	}
	if cfg.Graph != nil {
		k.graph = cfg.Graph
		k.n = cfg.Graph.Size()
	} else {
		if cfg.Size < 2 {
			return nil, fmt.Errorf("sim: dynamic complete overlay needs Size ≥ 2, got %d", cfg.Size)
		}
		k.graph = dynComplete{k}
		k.dyn = true
		k.n = cfg.Size
	}
	if k.loss == nil {
		k.loss = NoLoss{}
	}
	k.ops = []Op{OpAvg}
	if len(cfg.Ops) > 0 {
		k.ops = append([]Op(nil), cfg.Ops...)
	}
	k.cols = make([][]float64, len(k.ops))
	for f := range k.cols {
		k.cols[f] = make([]float64, k.n)
	}
	k.shards = ResolveShards(cfg.Shards, k.n)
	if k.shards > 1 {
		if cfg.Wait != nil {
			return nil, fmt.Errorf("sim: event-based execution (Wait) is single-shard only")
		}
		mode := shSeq
		switch cfg.Selector.(type) {
		case nil:
			// Built-in seq pairing with per-shard RNG streams.
		case *PM:
			// Matching-based parallel pairing: both perfect matchings are
			// drawn on the master stream and executed through the
			// tournament, bit-identical to single-shard PM (see shard.go).
			mode = shPM
			if k.n%2 != 0 {
				return nil, fmt.Errorf("%w (n=%d)", ErrOddSize, k.n)
			}
			if cfg.Churn != nil {
				return nil, fmt.Errorf("sim: sharded pm pairing does not compose with churn (node count must stay even)")
			}
		case *Rand:
			// Independent uniform edge draws parallelize freely across
			// the shard streams; no parity or churn constraints.
			mode = shRand
		case *PMRand:
			// The matching half needs the same parity guarantee as pm.
			mode = shPMRand
			if k.n%2 != 0 {
				return nil, fmt.Errorf("%w (n=%d)", ErrOddSize, k.n)
			}
			if cfg.Churn != nil {
				return nil, fmt.Errorf("sim: sharded pmrand pairing does not compose with churn (node count must stay even)")
			}
		default:
			return nil, fmt.Errorf("sim: sharded execution supports the built-in selectors (Selector nil for seq, pm, rand, pmrand), not %q", cfg.Selector.Name())
		}
		k.sh = newSharder(k, mode)
	} else {
		k.sel = cfg.Selector
		if k.sel == nil {
			k.sel = NewSeq()
		}
		if err := k.sel.Bind(k.graph, k.rng); err != nil {
			return nil, fmt.Errorf("sim: bind selector %q: %w", k.sel.Name(), err)
		}
	}
	if cfg.CountPhi {
		k.phi = make([]int, k.n)
	}
	return k, nil
}

// Size returns the current live node count.
func (k *Kernel) Size() int { return k.n }

// Shards returns the executor's shard count (1 for the exact
// sequential path).
func (k *Kernel) Shards() int { return k.shards }

// ResolveShards returns the effective shard count New runs with for a
// requested Config.Shards at node count n: AutoShards becomes one
// shard per GOMAXPROCS worker, non-positive counts the sequential
// path, and the count is clamped so every shard owns at least two
// nodes. Exposed so kernel pools can tell whether an existing kernel
// is interchangeable with a fresh build.
func ResolveShards(requested, n int) int {
	if requested == AutoShards {
		requested = runtime.GOMAXPROCS(0)
	}
	if requested < 1 {
		requested = 1
	}
	if requested > n/2 {
		requested = max(n/2, 1)
	}
	return requested
}

// Reseed replaces the kernel's master random stream and resets the
// cycle counter, rebinding the selector (single-shard) or re-deriving
// the per-shard streams (sharded) exactly as New would. Together with
// Resize/ReshapeAvg and SetValues this lets one kernel be reused across
// independent runs with allocations staying flat: after Reseed the
// kernel behaves as if freshly constructed with this RNG.
func (k *Kernel) Reseed(rng *xrand.Rand) error {
	if rng == nil {
		return fmt.Errorf("sim: Reseed needs a non-nil RNG")
	}
	k.rng = rng
	k.cycle = 0
	if k.sh != nil {
		k.sh.reseed(rng)
		return nil
	}
	if err := k.sel.Bind(k.graph, rng); err != nil {
		return fmt.Errorf("sim: rebind selector %q: %w", k.sel.Name(), err)
	}
	return nil
}

// SetLoss swaps the message-loss model between runs (nil restores the
// lossless default). The next Draw happens on the next cycle.
func (k *Kernel) SetLoss(l LossModel) {
	if l == nil {
		l = NoLoss{}
	}
	k.loss = l
}

// Fields returns the number of gossiped fields.
func (k *Kernel) Fields() int { return len(k.ops) }

// Column returns field f's live value column, indexed by node. Callers
// may read and write it between cycles; the kernel operates on the
// same backing array (mutating it models externally changing local
// values, which the protocol tracks by design).
func (k *Kernel) Column(f int) []float64 { return k.cols[f][:k.n] }

// SetValues copies vals into field f's column. The length must match
// the current node count.
func (k *Kernel) SetValues(f int, vals []float64) error {
	if len(vals) != k.n {
		return fmt.Errorf("sim: vector length %d does not match node count %d", len(vals), k.n)
	}
	copy(k.cols[f], vals)
	return nil
}

// SetAdversaries marks nodes as Byzantine with the given behavior.
// Extreme-value adversaries pin their field-0 report to magnitude;
// colluding and eclipse adversaries pin it to target; selective-drop
// adversaries keep their current (honestly drawn) values. Call after
// loading values with SetValues and before SetRobust (the trim seed
// must exclude adversarial values). Passing no nodes clears the axis.
func (k *Kernel) SetAdversaries(behavior AdversaryBehavior, nodes []int, magnitude, target float64) error {
	k.adv = nil
	k.advNodes = k.advNodes[:0]
	k.advEclipse = false
	k.eclipsed = nil
	if len(nodes) == 0 {
		return nil
	}
	k.adv = resizeZeroU8(k.adv, 0, k.n)
	for _, i := range nodes {
		if i < 0 || i >= k.n {
			return fmt.Errorf("sim: adversary node %d out of range [0,%d)", i, k.n)
		}
		if k.adv[i] != 0 {
			continue
		}
		k.adv[i] = 1
		k.advNodes = append(k.advNodes, int32(i))
	}
	if len(k.advNodes) >= k.n-1 {
		return fmt.Errorf("sim: %d adversaries leave fewer than two honest nodes (n=%d)", len(k.advNodes), k.n)
	}
	col0 := k.cols[0]
	switch behavior {
	case AdvExtreme:
		for _, i := range k.advNodes {
			col0[i] = magnitude
		}
	case AdvColluding:
		for _, i := range k.advNodes {
			col0[i] = target
		}
	case AdvEclipse:
		for _, i := range k.advNodes {
			col0[i] = target
		}
		k.advEclipse = true
		k.eclipsed = resizeZeroU8(nil, 0, k.n)
	case AdvSelectiveDrop:
		// Values stay as drawn: the node is indistinguishable by state,
		// only by its refusal to converge.
	default:
		return fmt.Errorf("sim: unknown adversary behavior %d", behavior)
	}
	return nil
}

// Adversaries returns the Byzantine node indices (nil without an
// adversary axis; shared — treat as read-only).
func (k *Kernel) Adversaries() []int32 { return k.advNodes }

// SetRobust installs the robust-merge countermeasures (a zero policy
// disables them). When trimming is enabled, each node's acceptance band
// is seeded from the honest population's current field-0 spread —
// center 0, scale max(σ, ε) — so a converged-looking network starts
// strict and an adversary gets no free warmup window. Call after
// SetValues and SetAdversaries.
func (k *Kernel) SetRobust(p robust.Policy) {
	k.rejected.Store(0)
	if !p.Enabled() {
		k.robust = robust.Policy{}
		k.robustOn = false
		k.trim = nil
		return
	}
	if p.Trim && p.TrimK <= 0 {
		p.TrimK = 8
	}
	k.robust = p
	k.robustOn = true
	k.trim = nil
	if p.Trim {
		var run stats.Running
		col0 := k.cols[0]
		for i := 0; i < k.n; i++ {
			if k.adv == nil || k.adv[i] == 0 {
				run.Add(col0[i])
			}
		}
		scale := run.StdDev()
		if scale < 1e-12 {
			scale = 1e-12
		}
		k.trim = make([]robust.TrimState, k.n)
		for i := range k.trim {
			k.trim[i] = robust.TrimState{Center: 0, Scale: scale}
		}
	}
}

// RobustRejected returns how many exchange halves the robust trim gate
// has rejected since SetRobust.
func (k *Kernel) RobustRejected() uint64 { return k.rejected.Load() }

// PhiCounts returns the per-node selection counts of the most recent
// cycle (one entry per live node), or nil unless the kernel was built
// with CountPhi. The slice is reused across cycles; copy it to retain.
func (k *Kernel) PhiCounts() []int {
	if k.phi == nil {
		return nil
	}
	return k.phi[:k.n]
}

// CycleCount returns the number of completed cycles.
func (k *Kernel) CycleCount() int { return k.cycle }

// Cycle performs one full cycle — exactly Size() elementary steps —
// with the configured selector, loss model and executor.
func (k *Kernel) Cycle() {
	if k.n >= 2 {
		if k.shards > 1 {
			k.shardCycle()
		} else {
			k.seqCycle()
		}
	}
	k.cycle++
}

// seqCycle is the exact sequential path: selector-driven, one RNG, in
// the pre-kernel loops' draw order.
func (k *Kernel) seqCycle() {
	k.sel.BeginCycle()
	if k.phi != nil {
		clear(k.phi[:k.n])
	}
	n := k.n
	for s := 0; s < n; s++ {
		i, j := k.sel.NextPair()
		j = k.redirectEclipsed(i, j, k.rng)
		if k.phi != nil {
			k.phi[i]++
			k.phi[j]++
		}
		switch k.loss.Draw(k.rng) {
		case Dropped:
		case ResponderOnly:
			k.mergeResponder(i, j)
		default:
			k.mergeFull(i, j)
		}
	}
}

// redirectEclipsed maps initiator i's drawn partner j to a uniformly
// random adversary when i's view has been captured by an eclipse node —
// the kernel model of a gossip view flooded with adversary addresses.
// Identity without an eclipse axis.
func (k *Kernel) redirectEclipsed(i, j int, rng *xrand.Rand) int {
	if !k.advEclipse || k.eclipsed[i] == 0 {
		return j
	}
	return int(k.advNodes[rng.Intn(len(k.advNodes))])
}

// mergeFull applies the elementary step to nodes i and j: both adopt
// the field-wise merge.
func (k *Kernel) mergeFull(i, j int) {
	if k.adv != nil || k.robustOn {
		k.mergeFullGuarded(i, j)
		return
	}
	for f, op := range k.ops {
		col := k.cols[f]
		m := op.merge(col[i], col[j])
		col[i] = m
		col[j] = m
	}
}

// mergeFullGuarded is mergeFull with the adversary and robust-merge
// semantics of the live runtimes: i is the initiator, j the responder.
// Adversaries never adopt the merge and report their pinned values; an
// honest responder's trim rejection aborts the whole exchange (the
// engine's nack), an honest initiator's rejection of the reply drops
// only its own half (the responder has already committed, exactly as
// in the live protocol). Safe under the sharded executor: each pair's
// nodes are worker-disjoint within a round, and the rejected counter is
// atomic.
func (k *Kernel) mergeFullGuarded(i, j int) {
	advI := k.adv != nil && k.adv[i] != 0
	advJ := k.adv != nil && k.adv[j] != 0
	if k.advEclipse {
		if advJ && !advI {
			k.eclipsed[i] = 1
		}
		if advI && !advJ {
			k.eclipsed[j] = 1
		}
	}
	if advI && advJ {
		return
	}
	col0 := k.cols[0]
	pre0i, pre0j := col0[i], col0[j]
	repI, repJ := pre0i, pre0j // field-0 values as received (post clamp)
	if k.robustOn {
		repI = k.robust.ClampValue(repI)
		repJ = k.robust.ClampValue(repJ)
		if k.robust.Trim {
			if !advJ && !k.trim[j].Admit(repI-pre0j, k.robust.TrimK) {
				k.rejected.Add(1)
				return // passive-side reject: neither half merges
			}
		}
	}
	mergeI := !advI
	if mergeI && k.robustOn && k.robust.Trim &&
		!k.trim[i].Admit(repJ-pre0i, k.robust.TrimK) {
		k.rejected.Add(1)
		mergeI = false // active-side reject: responder already committed
	}
	for f, op := range k.ops {
		col := k.cols[f]
		if f == 0 {
			if mergeI {
				col[i] = op.merge(pre0i, repJ)
			}
			if !advJ {
				col[j] = op.merge(repI, pre0j)
			}
			continue
		}
		m := op.merge(col[i], col[j])
		if mergeI {
			col[i] = m
		}
		if !advJ {
			col[j] = m
		}
	}
}

// mergeResponder applies the merge at the responder j only — the
// deployed protocol's reply-loss outcome, which violates mass
// conservation (§2).
func (k *Kernel) mergeResponder(i, j int) {
	if k.adv != nil || k.robustOn {
		k.mergeResponderGuarded(i, j)
		return
	}
	for f, op := range k.ops {
		col := k.cols[f]
		col[j] = op.merge(col[i], col[j])
	}
}

// mergeResponderGuarded is mergeResponder under the adversary and
// robust axes: the responder's eclipse capture, adversary no-merge and
// trim gate all apply; the initiator is untouched by construction.
func (k *Kernel) mergeResponderGuarded(i, j int) {
	advI := k.adv != nil && k.adv[i] != 0
	advJ := k.adv != nil && k.adv[j] != 0
	if k.advEclipse && advI && !advJ {
		k.eclipsed[j] = 1
	}
	if advJ {
		return
	}
	col0 := k.cols[0]
	rep := col0[i]
	if k.robustOn {
		rep = k.robust.ClampValue(rep)
		if k.robust.Trim && !k.trim[j].Admit(rep-col0[j], k.robust.TrimK) {
			k.rejected.Add(1)
			return
		}
	}
	for f, op := range k.ops {
		col := k.cols[f]
		in := col[i]
		if f == 0 {
			in = rep
		}
		col[j] = op.merge(in, col[j])
	}
}

// Run performs the given number of cycles, applying the configured
// churn schedule (if any) before each one, and returns field 0's
// empirical variance after every cycle, with index 0 holding the
// initial variance — the raw series behind Figures 3(a) and 3(b).
func (k *Kernel) Run(cycles int) []float64 {
	out, _ := k.RunContext(context.Background(), cycles)
	return out
}

// RunContext is Run with cooperative cancellation: the context is
// checked once per cycle, so even a 10⁶-node run stops within tens of
// milliseconds of a cancel. The variances accumulated so far are
// returned alongside the context's error.
func (k *Kernel) RunContext(ctx context.Context, cycles int) ([]float64, error) {
	out := make([]float64, 0, cycles+1)
	out = append(out, stats.Variance(k.Column(0)))
	for c := 0; c < cycles; c++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if k.churn != nil {
			k.applyChurn()
		}
		k.Cycle()
		out = append(out, stats.Variance(k.Column(0)))
	}
	return out, nil
}

// applyChurn executes one cycle's churn plan: uniform removals (never
// below two live nodes) followed by additions initialized via the
// Join hook.
func (k *Kernel) applyChurn() {
	remove, add := k.churn.Plan(k.cycle, k.n)
	k.RemoveRandom(remove)
	k.Grow(add)
}

// RemoveRandom removes up to m uniformly random live nodes (crash
// model: their state mass disappears), keeping at least two so the
// network stays exchangeable. It returns how many were removed.
func (k *Kernel) RemoveRandom(m int) int {
	removed := 0
	for removed < m && k.n > 2 {
		k.RemoveNode(k.rng.Intn(k.n))
		removed++
	}
	return removed
}

// RemoveNode removes node i by swapping in the last live node across
// every field column. Only dynamic-overlay kernels support removal.
func (k *Kernel) RemoveNode(i int) {
	if !k.dyn {
		panic("sim: RemoveNode needs the dynamic complete overlay (Config.Graph == nil)")
	}
	last := k.n - 1
	for f := range k.cols {
		col := k.cols[f]
		col[i] = col[last]
	}
	if k.adv != nil {
		k.adv[i] = k.adv[last]
		// Swapping can move adversary indices; rebuild the list (churn
		// and adversaries rarely compose — the scenario layer forbids
		// it — so the O(n) scan is off every hot path).
		k.advNodes = k.advNodes[:0]
		for idx := 0; idx < last; idx++ {
			if k.adv[idx] != 0 {
				k.advNodes = append(k.advNodes, int32(idx))
			}
		}
	}
	if k.eclipsed != nil {
		k.eclipsed[i] = k.eclipsed[last]
	}
	if k.trim != nil {
		k.trim[i] = k.trim[last]
	}
	k.n = last
}

// Grow adds m fresh nodes whose field values come from the Join hook
// (zero without one). Only dynamic-overlay kernels support growth.
func (k *Kernel) Grow(m int) {
	if m <= 0 {
		return
	}
	if !k.dyn {
		panic("sim: Grow needs the dynamic complete overlay (Config.Graph == nil)")
	}
	k.Resize(k.n + m)
	if k.join != nil {
		for f := range k.cols {
			v := k.join(f)
			col := k.cols[f]
			for i := k.n - m; i < k.n; i++ {
				col[i] = v
			}
		}
	}
}

// Resize sets the live node count to n, zero-filling any growth and
// reusing column storage. Only dynamic-overlay kernels may resize.
func (k *Kernel) Resize(n int) {
	if !k.dyn {
		panic("sim: Resize needs the dynamic complete overlay (Config.Graph == nil)")
	}
	for f := range k.cols {
		k.cols[f] = resizeZero(k.cols[f], k.n, n)
	}
	if k.adv != nil {
		k.adv = resizeZeroU8(k.adv, k.n, n)
	}
	if k.eclipsed != nil {
		k.eclipsed = resizeZeroU8(k.eclipsed, k.n, n)
	}
	if k.trim != nil && n > len(k.trim) {
		// Joiners inherit a fresh band at the seeded scale of node 0
		// (all bands start identical; accepted traffic specializes them).
		seed := robust.TrimState{Scale: 1e-12}
		if len(k.trim) > 0 {
			seed = robust.TrimState{Center: 0, Scale: k.trim[0].Scale}
		}
		for len(k.trim) < n {
			k.trim = append(k.trim, seed)
		}
	}
	if k.phi != nil && n > len(k.phi) {
		k.phi = append(k.phi, make([]int, n-len(k.phi))...)
	}
	k.n = n
}

// ReshapeAvg reconfigures the kernel to fields average columns over n
// nodes, all zero — the epoch-restart primitive of the §4 size
// estimator (each instance is one indicator column). Storage is
// reused across epochs. Any adversary or robust configuration is
// dropped with the columns it referred to.
func (k *Kernel) ReshapeAvg(fields, n int) {
	if !k.dyn {
		panic("sim: ReshapeAvg needs the dynamic complete overlay (Config.Graph == nil)")
	}
	k.adv = nil
	k.advNodes = k.advNodes[:0]
	k.advEclipse = false
	k.eclipsed = nil
	k.robust = robust.Policy{}
	k.robustOn = false
	k.trim = nil
	if fields < 1 {
		fields = 1
	}
	if len(k.ops) != fields {
		k.ops = make([]Op, fields)
		for len(k.cols) < fields {
			k.cols = append(k.cols, nil)
		}
		k.cols = k.cols[:fields]
	}
	for f := range k.ops {
		k.ops[f] = OpAvg
	}
	for f := range k.cols {
		k.cols[f] = resizeZero(k.cols[f], 0, n)
	}
	if k.phi != nil && n > len(k.phi) {
		k.phi = append(k.phi, make([]int, n-len(k.phi))...)
	}
	k.n = n
}

// resizeZero returns col resized from oldN to n live entries, growing
// the backing array as needed and zeroing any newly exposed tail.
func resizeZero(col []float64, oldN, n int) []float64 {
	if cap(col) < n {
		grown := make([]float64, n)
		copy(grown, col[:oldN])
		return grown
	}
	col = col[:n]
	if n > oldN {
		clear(col[oldN:n])
	}
	return col
}

// resizeZeroU8 is resizeZero for byte flag columns.
func resizeZeroU8(col []uint8, oldN, n int) []uint8 {
	if cap(col) < n {
		grown := make([]uint8, n)
		copy(grown, col[:oldN])
		return grown
	}
	col = col[:n]
	if n > oldN {
		clear(col[oldN:n])
	}
	return col
}
