package engine

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// RuntimeMode once selected how a cluster's nodes were scheduled.
//
// Deprecated: every cluster runs the sharded Runtime; the mode is
// ignored.
type RuntimeMode uint8

// Runtime modes, kept so existing ClusterConfig literals compile.
//
// Deprecated: both run the Runtime.
const (
	ModeGoroutine RuntimeMode = iota
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

// ClusterConfig assembles a local in-memory cluster of nodes — the
// quickest way to run the live protocol at laptop scale
// (examples, integration tests, the quickstart). The fields mean what
// the RuntimeConfig fields of the same names do.
type ClusterConfig struct {
	// Size is the number of nodes (≥ 2).
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
	// PushOnly enables the push-only ablation on every node.
	PushOnly bool
	// InitState, when non-nil, overrides state initialization for node i
	// (e.g. to seed the size-estimation leader).
	InitState func(i int) func(epochID uint64, value float64) core.State
	// Clock, when non-nil, drives epoch restarts on every node (§4
	// adaptivity); nil runs one endless epoch.
	Clock *epoch.Clock
	// Samplers, when non-nil, builds node i's membership sampler; nil
	// runs the complete overlay (see RuntimeConfig.Samplers).
	Samplers func(i int, self string, local []string) (membership.Sampler, error)
	// Mode is ignored.
	//
	// Deprecated: every cluster runs the sharded Runtime.
	Mode RuntimeMode
	// Workers is the worker/shard count (default GOMAXPROCS).
	Workers int
	// Seed makes the cluster deterministic-ish (scheduling still varies).
	Seed uint64
	// Metrics, when non-nil, registers the runtime's instrumentation.
	Metrics *metrics.Registry
	// TraceSample configures exchange tracing; see RuntimeConfig.
	TraceSample int
}

// Cluster is a Runtime plus the variance polls the examples and tests
// converge on. NewCluster builds it in memory.
type Cluster struct {
	*Runtime
}

// NewCluster builds (but does not start) a local cluster. By default
// every node samples peers uniformly from the whole cluster, matching
// the paper's complete-overlay assumption in O(N) total memory; set
// Samplers to run on live gossip membership instead.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Size < 2 {
		return nil, fmt.Errorf("engine: cluster needs ≥ 2 nodes, got %d", cfg.Size)
	}
	rt, err := NewRuntime(RuntimeConfig{
		Size:         cfg.Size,
		Schema:       cfg.Schema,
		Value:        cfg.Value,
		CycleLength:  cfg.CycleLength,
		ReplyTimeout: cfg.ReplyTimeout,
		Wait:         cfg.Wait,
		PushOnly:     cfg.PushOnly,
		InitState:    cfg.InitState,
		Clock:        cfg.Clock,
		Samplers:     cfg.Samplers,
		Workers:      cfg.Workers,
		Seed:         cfg.Seed,
		Metrics:      cfg.Metrics,
		TraceSample:  cfg.TraceSample,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{rt}, nil
}

// Variance returns the cross-node empirical variance of the named field —
// the live-engine analogue of the paper's σ². It folds shard-by-shard
// (Welford), allocating nothing per node.
func (c *Cluster) Variance(field string) (float64, error) {
	var run stats.Running
	if err := c.ReduceField(field, run.Add); err != nil {
		return 0, err
	}
	return run.Variance(), nil
}

// WaitConverged polls until the named field's cross-node variance falls
// to at most tol, returning the final variance and whether the deadline
// was met.
func (c *Cluster) WaitConverged(field string, tol float64, timeout time.Duration) (float64, bool, error) {
	deadline := time.Now().Add(timeout)
	interval := 5 * time.Millisecond
	for {
		v, err := c.Variance(field)
		if err != nil {
			return 0, false, err
		}
		if v <= tol {
			return v, true, nil
		}
		if time.Now().After(deadline) {
			return v, false, nil
		}
		time.Sleep(interval)
	}
}
