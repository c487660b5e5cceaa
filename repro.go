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
// The live-side historical entry points NewCluster and NewRuntime
// remain as deprecated wrappers; each documents its Open replacement.
//
// See DESIGN.md for the system inventory (including the public-API
// migration table) and EXPERIMENTS.md for the paper-versus-measured
// record.
package repro

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/membership"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// AutoShards, as scenario.Spec.Shards, selects one shard per
// GOMAXPROCS worker where the sharded executor applies, falling back to
// sequential execution elsewhere.
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
	// Cluster is a locally running set of nodes in memory: every message
	// between them stays in the process.
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
	// Endpoint is a node's transport attachment (see NewTCPEndpoint); a
	// Runtime built without endpoints runs in memory and needs none.
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
// remains for callers that need the raw Cluster API (SetLoss before
// Start, manual Start).
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
// with at least one known peer other than self; the view then maintains
// itself from piggybacked gossip.
func NewGossipSampler(self string, capacity int, seeds []string) (membership.Sampler, error) {
	g, err := membership.NewGossipSampler(self, capacity, seeds)
	if err != nil {
		return nil, err
	}
	if g.ViewSize() == 0 {
		return nil, membership.ErrNoPeers
	}
	return g, nil
}

// TheoreticalRate returns the paper's closed-form per-cycle variance
// reduction rate E(2^{-φ}) for the named selector on the complete graph
// (1/4 for "pm", 1/e for "rand", 1/(2√e) for "seq" and "pmrand");
// ok is false for unknown selectors.
func TheoreticalRate(selector string) (rate float64, ok bool) {
	return sim.TheoreticalRate(selector)
}
