// Package repro is a production-quality Go implementation of
// epidemic-style proactive aggregation in large overlay networks
// (Jelasity & Montresor, ICDCS 2004): anti-entropy gossip that gives
// every node a continuously maintained approximation of global
// aggregates — average, extrema, sums, variance and network size — with
// exponential convergence and no performance bottlenecks.
//
// The public API is the Run / Open / Watch triad:
//
//   - Run(ctx, spec) executes one declarative scenario.Spec — the
//     paper's theoretical model, the sharded paper-scale executor, the
//     asynchronous event-driven model or the §4 size estimator, routed
//     by the spec's axes — and materializes the outcome. RunGrid
//     sweeps a base spec crossed with axes and streams reduction rows.
//   - Open(opts...) assembles and starts a live aggregation System
//     from functional options on one sharded runtime: an in-memory
//     population, a 10⁵-node population over TCP, or one deployable TCP
//     node.
//   - System.Watch(ctx, field) streams one typed Estimate per cycle;
//     System.Reduce(ctx, field, reducer) folds over node states shard
//     by shard without materializing an N-length vector — aggregation
//     as a continuously queried service, not a batch run.
//
// The historical entry points — Simulate, SimulateAsync,
// EstimateSizeUnderChurn, NewCluster/NewRuntime — remain as thin
// deprecated wrappers with byte-identical fixed-seed output; each
// config documents its Run/Open replacement.
//
// See DESIGN.md for the system inventory (including the public-API
// migration table) and EXPERIMENTS.md for the paper-versus-measured
// record.
package repro

import (
	"context"
	"fmt"

	"repro/internal/avg"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/eventsim"
	"repro/internal/experiments"
	"repro/internal/membership"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/scenario"
)

// AutoShards, as SimulationConfig.Shards or scenario.Spec.Shards,
// selects one shard per GOMAXPROCS worker where the sharded executor
// applies, falling back to sequential execution elsewhere.
const AutoShards = sim.AutoShards

// Re-exported building blocks. These aliases are the supported public
// names for the library's rich types.
type (
	// Schema defines the set of fields gossiped together and how each
	// merges (see NewAverageSchema and NewSummarySchema).
	Schema = core.Schema
	// State is one node's vector of field approximations.
	State = core.State
	// Summary is the decoded result of a summary schema: mean, variance,
	// extrema, size and sum in one gossip instance.
	Summary = core.Summary
	// Node is a handle on one live protocol participant hosted by a
	// System, Cluster or Runtime.
	Node = engine.Node
	// Cluster is a locally running set of nodes over an in-memory fabric.
	Cluster = engine.Cluster
	// ClusterConfig assembles a Cluster (most callers want Open).
	ClusterConfig = engine.ClusterConfig
	// Runtime is the live runtime: a sharded scheduler multiplexing one
	// to 10⁶ nodes onto a small worker pool with batched transports.
	Runtime = engine.Runtime
	// RuntimeConfig assembles a Runtime (bring your own endpoints and
	// samplers, e.g. for a single node; most callers want Open with
	// WithTCP).
	RuntimeConfig = engine.RuntimeConfig
	// RuntimeMode once selected a Cluster's or System's scheduler.
	//
	// Deprecated: every Cluster and System runs the sharded Runtime.
	RuntimeMode = engine.RuntimeMode
	// NodeStats is a snapshot of a live node's protocol counters.
	NodeStats = engine.Stats
	// TraceRecord is one trace-sampled exchange (see WithTraceSampling
	// and System.Trace).
	TraceRecord = engine.TraceRecord
	// TraceOutcome is how a traced exchange resolved.
	TraceOutcome = engine.TraceOutcome
	// Endpoint is a node's transport attachment (see NewTCPEndpoint, or
	// build an in-memory fabric via NewCluster).
	Endpoint = transport.Endpoint
	// Sampler supplies random gossip partners (see NewStaticSampler and
	// NewGossipSampler).
	Sampler = membership.Sampler
	// EpochReport is one epoch's converged output of the size estimator.
	EpochReport = epoch.EpochReport
	// Series is an aggregated experiment curve (mean/stderr/min/max per
	// x-position).
	Series = stats.Series
)

// WaitPolicy selects how a live node draws its inter-exchange waiting
// time (§1.1): constant Δt or exponentially distributed with mean Δt.
type WaitPolicy = engine.WaitPolicy

// Waiting-time policies for the live engine (§1.1).
const (
	ConstantWait    = engine.ConstantWait
	ExponentialWait = engine.ExponentialWait
)

// Trace outcomes for TraceRecord.Outcome: the exchange's pull reply
// was merged, the peer declined while busy, or the reply deadline
// reaped it.
const (
	TraceCompleted = engine.TraceCompleted
	TraceNacked    = engine.TraceNacked
	TraceTimedOut  = engine.TraceTimedOut
)

// Runtime modes for ClusterConfig.Mode and WithMode.
//
// Deprecated: both run the sharded Runtime.
const (
	ModeGoroutine = engine.ModeGoroutine
	ModeHeap      = engine.ModeHeap
)

// NewRuntime builds (but does not start) a runtime hosting one or more
// nodes in one process.
//
// Deprecated: new code should use Open (in-memory, or WithTCP(listen,
// peers...) for the deployable shapes); NewRuntime remains for callers
// supplying their own endpoints and samplers.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) { return engine.NewRuntime(cfg) }

// NewAverageSchema returns a schema gossiping the plain average of the
// nodes' local values — the protocol the paper analyzes.
func NewAverageSchema() *Schema { return core.AverageSchema() }

// NewSummarySchema returns a schema gossiping mean, second moment, min,
// max and a size indicator together, decodable with DecodeSummary.
func NewSummarySchema() *Schema { return core.SummarySchema() }

// DecodeSummary interprets a summary-schema state as a Summary.
func DecodeSummary(schema *Schema, st State) (Summary, error) {
	return core.DecodeSummary(schema, st)
}

// Moments is the decoded result of a moments schema: raw moments plus
// mean, variance, skewness and kurtosis.
type Moments = core.Moments

// NewMomentsSchema returns a schema gossiping the averages of v…v^order
// in one instance (order 2–8) — the paper's "any moments" remark (§1.1)
// made concrete. Decode with DecodeMoments.
func NewMomentsSchema(order int) (*Schema, error) { return core.MomentsSchema(order) }

// DecodeMoments interprets a moments-schema state.
func DecodeMoments(schema *Schema, st State) (Moments, error) {
	return core.DecodeMoments(schema, st)
}

// NewGeometricSchema returns a schema whose decoded result is the
// geometric mean of the (strictly positive) local values.
func NewGeometricSchema() *Schema { return core.GeometricSchema() }

// DecodeGeometricMean interprets a geometric-schema state.
func DecodeGeometricMean(schema *Schema, st State) (float64, error) {
	return core.DecodeGeometricMean(schema, st)
}

// NewCluster builds (but does not start) a local in-memory cluster.
//
// Deprecated: new code should use Open, which assembles and starts the
// system and adds the Watch/Reduce observation surface; NewCluster
// remains for callers that need the raw Cluster API (fabric injection,
// manual Start).
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return engine.NewCluster(cfg) }

// NewTCPEndpoint listens on the given address ("127.0.0.1:0" for an
// ephemeral port) and returns a transport endpoint for
// RuntimeConfig.Endpoints.
func NewTCPEndpoint(listen string) (transport.Endpoint, error) {
	return transport.NewTCPEndpoint(listen)
}

// NewStaticSampler returns a membership sampler over a fixed peer list.
func NewStaticSampler(peers []string) (membership.Sampler, error) {
	return membership.NewStatic(peers)
}

// NewGossipSampler returns a Newscast-style membership sampler seeded
// with at least one known peer; the view then maintains itself from
// piggybacked gossip.
func NewGossipSampler(self string, capacity int, seeds []string) (membership.Sampler, error) {
	return membership.NewGossipSampler(self, capacity, seeds)
}

// SimulationConfig drives one run of the paper's theoretical model.
//
// Deprecated: new code should build a scenario.Spec and call Run; the
// Spec method renders the equivalent spec.
type SimulationConfig struct {
	// Size is the network size N (≥ 2).
	Size int
	// Selector is the GETPAIR implementation: "pm", "rand", "seq" or
	// "pmrand" (default "seq", the practical protocol).
	Selector string
	// Topology is the overlay: "complete" (default), "kregular", "view",
	// "ring", "smallworld" or "scalefree".
	Topology string
	// ViewSize is the degree parameter of non-complete overlays
	// (default 20, the paper's choice).
	ViewSize int
	// Cycles is how many AVG cycles to run (default 30).
	Cycles int
	// LossProbability drops each protocol message independently with
	// this probability (0 = lossless, the paper's assumption).
	LossProbability float64
	// Values supplies the initial vector; nil draws iid standard normal
	// values, the paper's uncorrelated starting point.
	Values []float64
	// Shards selects the executor: 0 (the default) runs the exact
	// sequential path, ≥ 2 the sharded tournament executor for
	// paper-scale runs, AutoShards one shard per GOMAXPROCS worker
	// (falling back to sequential for unshardable combinations).
	// Explicit sharding requires the complete topology with the "seq"
	// or "pm" selector.
	Shards int
	// Seed makes the run reproducible.
	Seed uint64
}

// Spec renders the configuration as the equivalent declarative
// scenario spec for Run. The spec's seed is scenario.RawSeed(Seed), so
// Run consumes exactly the random stream Simulate historically did and
// reproduces its output byte for byte.
func (cfg SimulationConfig) Spec() (scenario.Spec, error) {
	sel, err := scenario.ParseSelector(cfg.Selector)
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("repro: %w", err)
	}
	topo, err := scenario.ParseTopology(cfg.Topology)
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("repro: %w", err)
	}
	return scenario.Spec{
		Size:     cfg.Size,
		Cycles:   cfg.Cycles,
		Selector: sel,
		Topology: topo,
		ViewSize: cfg.ViewSize,
		LossProb: cfg.LossProbability,
		Values:   cfg.Values,
		Shards:   cfg.Shards,
		Seed:     scenario.RawSeed(cfg.Seed),
	}, nil
}

// SimulationResult reports one simulation run.
type SimulationResult struct {
	// Variances holds σ²ᵢ for i = 0..Cycles (index 0 is the initial
	// variance).
	Variances []float64
	// FinalMean is the vector mean after the last cycle; with lossless
	// exchanges it equals the initial mean up to rounding (mass
	// conservation, §3.2).
	FinalMean float64
	// ReductionRate is the geometric-mean per-cycle variance reduction —
	// compare with TheoreticalRate.
	ReductionRate float64
	// Values is the final vector (every node's approximation).
	Values []float64
	// Sharded reports whether the sharded executor actually ran (false
	// when AutoShards fell back to sequential execution).
	Sharded bool
}

// Simulate runs the paper's AVG algorithm once with the given
// configuration.
//
// Deprecated: use Run with cfg.Spec() — Simulate is a thin wrapper
// over it with byte-identical fixed-seed output.
func Simulate(cfg SimulationConfig) (*SimulationResult, error) {
	spec, err := cfg.Spec()
	if err != nil {
		return nil, err
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	return &SimulationResult{
		Variances:     res.Variances,
		FinalMean:     res.FinalMean,
		ReductionRate: res.ReductionRate,
		Values:        res.Values,
		Sharded:       res.Sharded,
	}, nil
}

// AsyncSimulationConfig drives the discrete-event simulation of the
// asynchronous protocol: autonomous nodes waking on their own waiting
// times (§1.1), no global cycles — at 100 000-node scale.
//
// Deprecated: new code should build a scenario.Spec with a Wait policy
// and call Run; the Spec method renders the equivalent spec.
type AsyncSimulationConfig struct {
	// Size is the network size N (≥ 2).
	Size int
	// Topology and ViewSize mirror SimulationConfig (defaults:
	// "complete", 20).
	Topology string
	ViewSize int
	// Exponential switches GETWAITINGTIME from the constant Δt (the
	// practical protocol, seq-like rate 1/(2√e)) to exponential waits
	// with mean Δt (rand-like rate 1/e, §3.3.2).
	Exponential bool
	// Cycles is the horizon in units of Δt (default 30).
	Cycles int
	// LossProbability drops whole exchanges with this probability.
	LossProbability float64
	// Values supplies the initial vector; nil draws iid standard normal.
	Values []float64
	// Seed makes the run reproducible.
	Seed uint64
}

// Spec renders the configuration as the equivalent declarative
// scenario spec for Run, seeded with scenario.RawSeed(Seed) — one seed
// vocabulary across every runner (the historical SimulateAsync derived
// its event stream from Seed ^ 0xa5a5a5a5, a second ad-hoc derivation
// this redesign retires).
func (cfg AsyncSimulationConfig) Spec() (scenario.Spec, error) {
	topo, err := scenario.ParseTopology(cfg.Topology)
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("repro: %w", err)
	}
	wait := scenario.WaitConstant
	if cfg.Exponential {
		wait = scenario.WaitExponential
	}
	return scenario.Spec{
		Size:     cfg.Size,
		Cycles:   cfg.Cycles,
		Topology: topo,
		ViewSize: cfg.ViewSize,
		Wait:     wait,
		LossProb: cfg.LossProbability,
		Values:   cfg.Values,
		Seed:     scenario.RawSeed(cfg.Seed),
	}, nil
}

// AsyncSimulationResult reports one event-driven run: variance sampled
// once per Δt, the exchange count and the (conserved) final mean.
type AsyncSimulationResult = eventsim.Result

// SimulateAsync runs the discrete-event model of the asynchronous
// protocol and returns the variance trajectory sampled once per Δt.
//
// Deprecated: use Run with cfg.Spec() — SimulateAsync is a thin
// wrapper over it. Note that this redesign unified the seed
// derivation: the whole run now consumes the single stream
// xrand.New(Seed) (overlay → values → events), retiring the historical
// Seed ^ 0xa5a5a5a5 side-channel, so trajectories differ from
// pre-redesign releases for the same seed (rates and all statistical
// properties are unchanged).
func SimulateAsync(cfg AsyncSimulationConfig) (*AsyncSimulationResult, error) {
	spec, err := cfg.Spec()
	if err != nil {
		return nil, err
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	return &AsyncSimulationResult{
		Variances: res.Variances,
		Exchanges: res.Exchanges,
		FinalMean: res.FinalMean,
	}, nil
}

// TheoreticalRate returns the paper's closed-form per-cycle variance
// reduction rate E(2^{-φ}) for the named selector on the complete graph
// (1/4 for "pm", 1/e for "rand", 1/(2√e) for "seq" and "pmrand");
// ok is false for unknown selectors.
func TheoreticalRate(selector string) (rate float64, ok bool) {
	return avg.TheoreticalRate(selector)
}

// SizeEstimationConfig drives the §4 application: adaptive network size
// estimation with epoch restarts under churn (the Figure 4 scenario).
//
// Deprecated: new code should build a scenario.Spec with a
// SizeEstimation section and call Run (reports arrive in
// Result.Epochs); the config's Spec method renders the equivalent
// spec.
type SizeEstimationConfig = experiments.Fig4Config

// DefaultSizeEstimationConfig returns the paper's Figure 4 parameters
// (size oscillating 90 000–110 000, ±100 nodes per cycle, 30-cycle
// epochs, 1000 cycles).
func DefaultSizeEstimationConfig() SizeEstimationConfig {
	return experiments.DefaultFig4()
}

// EstimateSizeUnderChurn runs the size-estimation scenario and returns
// one report per epoch (converged estimate with min/max range versus
// actual size).
//
// Deprecated: use Run with a size-estimation spec (cfg.Spec() with
// Seed set to scenario.RawSeed(cfg.Seed) reproduces this function's
// output byte for byte; Result.Epochs carries the reports).
func EstimateSizeUnderChurn(cfg SizeEstimationConfig) ([]EpochReport, error) {
	return experiments.Fig4(context.Background(), cfg)
}
