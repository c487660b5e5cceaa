// Package scenario is the public declarative description of this
// repository's experiments. A Spec is one serializable scenario — size,
// cycles, fields, topology, selector, wait policy, loss, churn,
// sharding, repeats, seed — and a Grid expands a base Spec crossed with
// swept Axes into the full cross-product of concrete runs. A Runner
// executes specs on a worker pool (one reusable sim.Kernel per worker),
// streams per-cycle reductions (mean, variance, convergence factor,
// extrema, optional percentiles) as Result rows, and emits them through
// pluggable Writers (CSV, JSON-lines, in-memory collector).
//
// Most callers want the repro package's front door instead:
// repro.Run(ctx, spec) executes one Spec and materializes the outcome,
// repro.RunGrid(ctx, grid, opts) streams a sweep. Every paper figure
// and ablation in cmd/figures is a table of Specs over this engine,
// and cmd/aggsim -scenario runs user-authored JSON scenarios without
// recompiling.
//
// Determinism contract: a run's trajectory depends only on the concrete
// Spec and the repeat index — per-repeat generators are derived as
// xrand.New(Seed + 0x9e3779b97f4a7c15·(rep+1)), the historical
// derivation of the experiment harness, so the rewritten figure
// drivers reproduce their pre-scenario output byte for byte. RawSeed
// inverts the derivation for repeat 0, giving the exact stream the
// retired one-shot entry points (repro.Simulate and friends) used.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/churn"
	"repro/internal/epoch"
	"repro/internal/robust"
	"repro/internal/sim"
)

// DefaultCycles is the cycle count a Spec runs when none is given —
// the paper's standard 30-cycle horizon.
const DefaultCycles = 30

// DefaultViewSize is the degree parameter of non-complete overlays
// when none is given (20, the paper's choice).
const DefaultViewSize = 20

// AutoShards selects one shard per GOMAXPROCS worker (sim.AutoShards).
// Unlike an explicit shard count, AutoShards is a preference, not a
// demand: combinations the sharded executor does not support fall back
// to the exact sequential path instead of failing (see Spec.Shards).
const AutoShards = sim.AutoShards

// EpochReport is one epoch's converged output of the §4 size estimator
// (RunResult.Epochs).
type EpochReport = epoch.EpochReport

// ChurnSpec prescribes per-cycle membership churn: a size model
// (constant or oscillating) plus a constant per-cycle fluctuation.
// Joiners enter with zero-valued fields, the §4 indicator convention.
type ChurnSpec struct {
	// Model is "constant" (default: hold the initial size) or
	// "oscillating" (the Figure 4 day/night swing between Min and Max).
	Model string `json:"model,omitempty"`
	// Min and Max bound the oscillation; ignored by the constant model.
	Min int `json:"min,omitempty"`
	Max int `json:"max,omitempty"`
	// Period is the oscillation period in cycles.
	Period int `json:"period,omitempty"`
	// Fluctuation is the per-cycle node turnover on top of the drift.
	Fluctuation int `json:"fluctuation,omitempty"`
}

// schedule translates the spec into the churn package's schedule.
func (c *ChurnSpec) schedule(initialSize int) (churn.Schedule, error) {
	s := churn.Schedule{Fluctuation: c.Fluctuation}
	switch c.Model {
	case "", "constant":
		s.Model = churn.Constant{N: initialSize}
	case "oscillating":
		if c.Min < 2 || c.Max < c.Min || c.Period < 1 {
			return s, fmt.Errorf("scenario: oscillating churn needs 2 ≤ min ≤ max and period ≥ 1, got min=%d max=%d period=%d", c.Min, c.Max, c.Period)
		}
		s.Model = churn.Oscillating{Min: c.Min, Max: c.Max, Period: c.Period}
	default:
		return s, fmt.Errorf("scenario: unknown churn model %q (want constant or oscillating)", c.Model)
	}
	return s, nil
}

// SizeEstimationSpec switches a Spec to the §4 application: network
// size estimation by anti-entropy counting with epoch restarts under
// the spec's churn schedule. One Result row is emitted per epoch
// (mean/min/max of the participants' estimates, actual size at epoch
// end).
type SizeEstimationSpec struct {
	// EpochCycles is the epoch length in cycles (default 30).
	EpochCycles int `json:"epoch_cycles,omitempty"`
	// Instances is the number of concurrent estimation instances per
	// epoch (default 1, the paper's basic mechanism).
	Instances int `json:"instances,omitempty"`
}

// DefaultAdversaryMagnitude is the extreme-value report magnitude when
// none is given — far outside the iid standard-normal start, so one
// uncontained reporter visibly poisons the mean.
const DefaultAdversaryMagnitude = 1000

// DefaultTrimK is the trimmed-merge acceptance band width (in running
// scale units) when none is given.
const DefaultTrimK = 8

// AdversarySpec converts a fraction of the population to Byzantine
// behavior. Adversary nodes never adopt merges — they answer every
// exchange with a pinned report (extreme magnitude, colluding target,
// or their unchanged draw for selective droppers) while honest peers
// faithfully average the poison in. Eclipse adversaries additionally
// capture their victims' peer sampling: once an honest node exchanges
// with one, its future initiations are redirected to adversaries.
// Result rows reduce the honest population only, with the Corruption
// column tracking |honest mean − initial honest mean|.
type AdversarySpec struct {
	// Behavior selects the misbehavior (default extreme-value).
	Behavior Behavior `json:"behavior,omitempty"`
	// Fraction is the adversarial fraction of the population; it must
	// place at least one adversary and leave at least two honest nodes.
	Fraction float64 `json:"fraction"`
	// Magnitude is the extreme-value report (default 1000).
	Magnitude float64 `json:"magnitude,omitempty"`
	// Target is the pinned report of colluding and eclipse adversaries
	// (default 0).
	Target float64 `json:"target,omitempty"`
}

// count returns the adversary count for a population of n.
func (a *AdversarySpec) count(n int) int {
	return int(a.Fraction * float64(n))
}

// RobustSpec enables robust-merge countermeasures. Clamping bounds
// every peer report to [ClampMin, ClampMax] before it is merged;
// trimming rejects exchanges whose report deviates from the node's
// running estimate of the honest delta distribution by more than TrimK
// scale units (rejections are counted in the Rejected column). At
// least one countermeasure must be enabled.
type RobustSpec struct {
	// Clamp bounds accepted peer reports to [ClampMin, ClampMax].
	Clamp    bool    `json:"clamp,omitempty"`
	ClampMin float64 `json:"clamp_min,omitempty"`
	ClampMax float64 `json:"clamp_max,omitempty"`
	// Trim rejects exchanges outside the running acceptance band.
	Trim bool `json:"trim,omitempty"`
	// TrimK is the acceptance band width in scale units (default 8).
	TrimK float64 `json:"trim_k,omitempty"`
}

// policy translates a normalized spec into the kernel's merge policy.
func (r *RobustSpec) policy() robust.Policy {
	return robust.Policy{
		Clamp:    r.Clamp,
		ClampMin: r.ClampMin,
		ClampMax: r.ClampMax,
		Trim:     r.Trim,
		TrimK:    r.TrimK,
	}
}

// Spec describes one concrete scenario. The zero value of every
// optional field selects the paper's defaults: a single average field
// on the complete overlay with seq pairing, lossless exchanges, no
// churn, exact sequential execution, one repeat.
type Spec struct {
	// Name labels the scenario in Result rows and output files.
	Name string `json:"name,omitempty"`
	// Label carries the swept-axis assignment ("selector=seq,size=1000")
	// when the spec came out of Grid.Expand; empty for hand-built specs.
	Label string `json:"label,omitempty"`
	// Size is the network size N (≥ 2; ≥ 4 for size estimation).
	Size int `json:"size"`
	// Cycles is the horizon: AVG cycles, Δt units in wait mode, or
	// total cycles in size-estimation mode (default 30).
	Cycles int `json:"cycles,omitempty"`
	// Ops lists the per-field merge operators ("avg", "min", "max");
	// empty means a single average field. Every field is initialized
	// with the same value vector.
	Ops []string `json:"ops,omitempty"`
	// Selector is the GETPAIR implementation (default SelectorSeq, the
	// practical protocol).
	Selector Selector `json:"selector,omitempty"`
	// Topology is the overlay (default TopologyComplete).
	Topology Topology `json:"topology,omitempty"`
	// ViewSize is the degree parameter of non-complete overlays
	// (default 20).
	ViewSize int `json:"view_size,omitempty"`
	// Wait switches to event-based execution with constant or
	// exponential waiting times (§1.1). WaitNone keeps cycle-based
	// runs.
	Wait Wait `json:"wait,omitempty"`
	// Loss is the message-loss model. LossAuto with LossProb > 0
	// defaults to LossReply in cycle mode and LossSymmetric in wait
	// mode, matching the historical semantics of each mode.
	Loss Loss `json:"loss,omitempty"`
	// LossProb is the per-message drop probability of the loss model.
	LossProb float64 `json:"loss_prob,omitempty"`
	// Churn, when non-nil, applies per-cycle membership churn.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// CrashFraction kills this fraction of nodes right after
	// initialization (their value mass disappears); a pre-crash
	// snapshot row is emitted with Cycle = -1. Requires the complete
	// topology.
	CrashFraction float64 `json:"crash_fraction,omitempty"`
	// SizeEstimation, when non-nil, runs the §4 size estimator instead
	// of a plain aggregation run.
	SizeEstimation *SizeEstimationSpec `json:"size_estimation,omitempty"`
	// Adversary, when non-nil, makes a fraction of nodes Byzantine
	// (cycle mode only; eclipse needs the seq or rand selector).
	Adversary *AdversarySpec `json:"adversary,omitempty"`
	// Robust, when non-nil, enables robust-merge countermeasures.
	Robust *RobustSpec `json:"robust,omitempty"`
	// Shards selects the executor: 0 (default) the exact sequential
	// path, ≥ 2 the sharded tournament executor, AutoShards (-1) one
	// shard per GOMAXPROCS worker. The sharded executor supports the
	// complete topology with any of the built-in selectors (pm and
	// pmrand additionally need an even size and no churn); an explicit
	// count on an unsupported combination is an error, while AutoShards
	// falls back to sequential execution (RunResult.Sharded reports
	// which executor actually ran).
	Shards int `json:"shards,omitempty"`
	// Repeats is the number of independent repetitions (default 1).
	Repeats int `json:"repeats,omitempty"`
	// Seed seeds the scenario; repeat r derives its own stream from
	// Seed + 0x9e3779b97f4a7c15·(r+1).
	Seed uint64 `json:"seed,omitempty"`
	// Values supplies the initial vector (length Size); empty draws
	// iid standard normal values, the paper's uncorrelated start.
	Values []float64 `json:"values,omitempty"`
	// TargetRatio, when > 0, stops a run early once the field-0
	// variance falls to TargetRatio·σ₀² (cycle mode only).
	TargetRatio float64 `json:"target_ratio,omitempty"`
	// Quantiles adds the P10/P50/P90 percentiles of field 0 to every
	// emitted row (one extra sort per cycle).
	Quantiles bool `json:"quantiles,omitempty"`
}

// shardable reports whether the sharded executor supports the spec's
// combination of axes (after enum defaults are applied).
func (s Spec) shardable() bool {
	if s.Topology != TopologyComplete || s.Wait != WaitNone ||
		s.SizeEstimation != nil {
		return false
	}
	switch s.Selector {
	case SelectorSeq, SelectorRand:
		return true
	case SelectorPM, SelectorPMRand:
		// The matching halves need a fixed even population.
		return s.Size%2 == 0 && s.Churn == nil
	default:
		return false
	}
}

// normalized returns a copy of the spec with defaults applied, or an
// error describing the first invalid or unsupported combination.
func (s Spec) normalized() (Spec, error) {
	minSize := 2
	if s.SizeEstimation != nil {
		minSize = 4
	}
	if s.Size < minSize {
		return s, fmt.Errorf("scenario: %s needs size ≥ %d, got %d", s.describe(), minSize, s.Size)
	}
	if s.Cycles == 0 {
		s.Cycles = DefaultCycles
	}
	if s.Cycles < 1 {
		return s, fmt.Errorf("scenario: %s needs cycles ≥ 1, got %d", s.describe(), s.Cycles)
	}
	if !s.Selector.valid() || !s.Topology.valid() || !s.Wait.valid() || !s.Loss.valid() {
		return s, fmt.Errorf("scenario: %s: out-of-range enum value (selector=%d topology=%d wait=%d loss=%d)",
			s.describe(), s.Selector, s.Topology, s.Wait, s.Loss)
	}
	if s.Selector == SelectorDefault {
		s.Selector = SelectorSeq
	}
	if s.Topology == TopologyDefault {
		s.Topology = TopologyComplete
	}
	if s.ViewSize == 0 {
		s.ViewSize = DefaultViewSize
	}
	if s.Repeats == 0 {
		s.Repeats = 1
	}
	if s.Repeats < 1 {
		return s, fmt.Errorf("scenario: %s needs repeats ≥ 1, got %d", s.describe(), s.Repeats)
	}
	if len(s.Values) > 0 && len(s.Values) != s.Size {
		return s, fmt.Errorf("scenario: %s: values length %d does not match size %d", s.describe(), len(s.Values), s.Size)
	}
	if _, err := s.ops(); err != nil {
		return s, err
	}
	if s.LossProb < 0 || s.LossProb >= 1 {
		return s, fmt.Errorf("scenario: %s: loss_prob must be in [0, 1), got %g", s.describe(), s.LossProb)
	}
	if s.Loss == LossAuto && s.LossProb > 0 {
		if s.Wait != WaitNone {
			s.Loss = LossSymmetric
		} else {
			s.Loss = LossReply
		}
	}
	if s.CrashFraction < 0 || s.CrashFraction >= 1 {
		return s, fmt.Errorf("scenario: %s: crash_fraction must be in [0, 1), got %g", s.describe(), s.CrashFraction)
	}
	complete := s.Topology == TopologyComplete
	if s.CrashFraction > 0 {
		if !complete {
			return s, fmt.Errorf("scenario: %s: crash_fraction requires the complete topology", s.describe())
		}
		if survivors := s.Size - int(s.CrashFraction*float64(s.Size)); survivors < 2 {
			return s, fmt.Errorf("scenario: %s: crash_fraction %g leaves < 2 survivors", s.describe(), s.CrashFraction)
		}
	}
	if s.Churn != nil {
		if !complete {
			return s, fmt.Errorf("scenario: %s: churn requires the complete topology (dynamic overlay)", s.describe())
		}
		if s.Selector == SelectorPM || s.Selector == SelectorPMRand {
			return s, fmt.Errorf("scenario: %s: churn does not compose with the %s selector (perfect matchings need a fixed even population)", s.describe(), s.Selector)
		}
		if _, err := s.Churn.schedule(s.Size); err != nil {
			return s, err
		}
	}
	if s.Shards == AutoShards && !s.shardable() {
		// AutoShards asks for the fastest supported executor, not for
		// sharding per se; an unshardable combination runs the exact
		// sequential path (RunResult.Sharded reports the outcome).
		s.Shards = 0
	}
	switch s.Wait {
	case WaitNone:
	default:
		if s.Selector != SelectorSeq {
			return s, fmt.Errorf("scenario: %s: wait mode replaces pair selection; selector must be left default", s.describe())
		}
		if s.Churn != nil || s.CrashFraction > 0 || s.Shards != 0 || s.TargetRatio > 0 {
			return s, fmt.Errorf("scenario: %s: wait mode does not compose with churn, crash, shards or target_ratio", s.describe())
		}
	}
	if s.Shards != 0 && s.Shards != 1 {
		if s.Shards < -1 {
			return s, fmt.Errorf("scenario: %s: shards must be ≥ 0 or -1 (auto), got %d", s.describe(), s.Shards)
		}
		if !complete {
			return s, fmt.Errorf("scenario: %s: sharded execution requires the complete topology", s.describe())
		}
		switch s.Selector {
		case SelectorSeq, SelectorRand:
		case SelectorPM, SelectorPMRand:
			if s.Size%2 != 0 {
				return s, fmt.Errorf("scenario: %s: sharded %s pairing needs an even size, got %d", s.describe(), s.Selector, s.Size)
			}
			if s.Churn != nil {
				return s, fmt.Errorf("scenario: %s: sharded %s pairing does not compose with churn", s.describe(), s.Selector)
			}
		default:
			return s, fmt.Errorf("scenario: %s: sharded execution does not support selector %q", s.describe(), s.Selector)
		}
	}
	if s.TargetRatio < 0 || s.TargetRatio >= 1 {
		if s.TargetRatio != 0 {
			return s, fmt.Errorf("scenario: %s: target_ratio must be in (0, 1), got %g", s.describe(), s.TargetRatio)
		}
	}
	if a := s.Adversary; a != nil {
		if !a.Behavior.valid() {
			return s, fmt.Errorf("scenario: %s: out-of-range adversary behavior value %d", s.describe(), a.Behavior)
		}
		norm := *a
		if norm.Behavior == BehaviorDefault {
			norm.Behavior = BehaviorExtreme
		}
		if norm.Magnitude == 0 {
			norm.Magnitude = DefaultAdversaryMagnitude
		}
		if !(norm.Fraction > 0 && norm.Fraction < 1) {
			return s, fmt.Errorf("scenario: %s: adversary fraction must be in (0, 1), got %g", s.describe(), norm.Fraction)
		}
		// Sizing uses the post-crash population, the one the adversaries
		// are drawn from.
		n := s.Size
		if s.CrashFraction > 0 {
			n -= int(s.CrashFraction * float64(n))
		}
		count := norm.count(n)
		if count < 1 {
			return s, fmt.Errorf("scenario: %s: adversary fraction %g places no adversary in %d nodes", s.describe(), norm.Fraction, n)
		}
		if n-count < 2 {
			return s, fmt.Errorf("scenario: %s: adversary fraction %g leaves < 2 honest nodes", s.describe(), norm.Fraction)
		}
		if s.Wait != WaitNone {
			return s, fmt.Errorf("scenario: %s: the adversary axis requires cycle mode", s.describe())
		}
		if norm.Behavior == BehaviorEclipse && (s.Selector == SelectorPM || s.Selector == SelectorPMRand) {
			// Matching-based pair streams fix both endpoints up front, so
			// eclipse redirection has no initiator draw to capture.
			return s, fmt.Errorf("scenario: %s: eclipse adversaries need the seq or rand selector, got %s", s.describe(), s.Selector)
		}
		s.Adversary = &norm
	}
	if r := s.Robust; r != nil {
		norm := *r
		if norm.TrimK == 0 {
			norm.TrimK = DefaultTrimK
		}
		if !norm.Clamp && !norm.Trim {
			return s, fmt.Errorf("scenario: %s: robust spec enables no countermeasure (set clamp and/or trim)", s.describe())
		}
		if norm.Clamp && !(norm.ClampMin < norm.ClampMax) {
			return s, fmt.Errorf("scenario: %s: clamp needs clamp_min < clamp_max, got [%g, %g]", s.describe(), norm.ClampMin, norm.ClampMax)
		}
		if norm.Trim && norm.TrimK <= 0 {
			return s, fmt.Errorf("scenario: %s: trim_k must be > 0, got %g", s.describe(), norm.TrimK)
		}
		if s.Wait != WaitNone {
			return s, fmt.Errorf("scenario: %s: robust merge requires cycle mode", s.describe())
		}
		s.Robust = &norm
	}
	if se := s.SizeEstimation; se != nil {
		norm := *se
		if norm.EpochCycles == 0 {
			norm.EpochCycles = DefaultCycles
		}
		if norm.Instances == 0 {
			norm.Instances = 1
		}
		if norm.EpochCycles < 1 || norm.Instances < 1 {
			return s, fmt.Errorf("scenario: %s: size estimation needs epoch_cycles ≥ 1 and instances ≥ 1", s.describe())
		}
		if s.Cycles < norm.EpochCycles {
			return s, fmt.Errorf("scenario: %s: cycles (%d) shorter than one epoch (%d)", s.describe(), s.Cycles, norm.EpochCycles)
		}
		if s.Selector != SelectorSeq || !complete || s.Wait != WaitNone || s.Shards != 0 ||
			s.CrashFraction > 0 || s.Loss != LossAuto && s.Loss != LossNone || len(s.Ops) > 0 || s.TargetRatio > 0 ||
			s.Adversary != nil || s.Robust != nil {
			return s, fmt.Errorf("scenario: %s: size estimation composes only with size, cycles, churn, repeats and seed", s.describe())
		}
		s.SizeEstimation = &norm
	}
	return s, nil
}

// describe names the spec in error messages.
func (s Spec) describe() string {
	switch {
	case s.Name != "" && s.Label != "":
		return fmt.Sprintf("spec %q (%s)", s.Name, s.Label)
	case s.Name != "":
		return fmt.Sprintf("spec %q", s.Name)
	case s.Label != "":
		return fmt.Sprintf("spec (%s)", s.Label)
	default:
		return "spec"
	}
}

// ops parses the per-field merge operators.
func (s Spec) ops() ([]sim.Op, error) {
	if len(s.Ops) == 0 {
		return []sim.Op{sim.OpAvg}, nil
	}
	out := make([]sim.Op, len(s.Ops))
	for f, name := range s.Ops {
		switch name {
		case "avg":
			out[f] = sim.OpAvg
		case "min":
			out[f] = sim.OpMin
		case "max":
			out[f] = sim.OpMax
		default:
			return nil, fmt.Errorf("scenario: %s: unknown op %q (want avg, min or max)", s.describe(), name)
		}
	}
	return out, nil
}

// lossModel builds the sim loss model for a normalized spec (nil for
// lossless).
func (s Spec) lossModel() sim.LossModel {
	if s.LossProb <= 0 {
		return nil
	}
	switch s.Loss {
	case LossSymmetric:
		return sim.SymmetricLoss{P: s.LossProb}
	case LossReply:
		return sim.ReplyLoss{P: s.LossProb}
	default:
		return nil
	}
}

// sizeSimConfig translates a normalized size-estimation spec into the
// epoch package's configuration, seeded with the concrete per-repeat
// seed.
func (s Spec) sizeSimConfig(seed uint64) (epoch.SizeSimConfig, error) {
	cfg := epoch.SizeSimConfig{
		InitialSize: s.Size,
		EpochCycles: s.SizeEstimation.EpochCycles,
		TotalCycles: s.Cycles,
		Instances:   s.SizeEstimation.Instances,
		Seed:        seed,
	}
	if s.Churn != nil {
		sched, err := s.Churn.schedule(s.Size)
		if err != nil {
			return cfg, err
		}
		cfg.Churn = sched
	}
	return cfg, nil
}

// MarshalIndent renders the spec as indented JSON (for examples and
// golden files).
func (s Spec) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// seedStep is the golden-ratio stride of the per-repeat seed
// derivation (see repSeed).
const seedStep = 0x9e3779b97f4a7c15

// repSeed derives repeat r's seed from the spec seed — the historical
// derivation of the experiment harness's forEachRun, kept bit-exact so
// the rewritten figure drivers reproduce their pre-scenario output.
func repSeed(seed uint64, rep int) uint64 {
	return seed + seedStep*uint64(rep+1)
}

// RawSeed returns the Spec.Seed under which repeat 0 consumes exactly
// the random stream xrand.New(seed) — the seed vocabulary of the
// retired one-shot entry points (repro.Simulate, SimulateAsync,
// EstimateSizeUnderChurn). Specs seeded with it reproduce their output
// byte for byte; new callers should treat Spec.Seed as opaque and
// simply pick one.
func RawSeed(seed uint64) uint64 {
	return seed - seedStep // repSeed(·, 0) adds one stride back
}

// nan is the missing-value marker used in Result rows.
var nan = math.NaN()
