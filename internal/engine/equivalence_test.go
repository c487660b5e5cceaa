package engine

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/stats"
	"repro/internal/transport"
)

// equivCase is one scenario of the cross-runtime equivalence matrix:
// every runtime variant (one shard, several parallel shards) executes it
// over a deterministic in-memory fabric with fixed seeds, and must
// converge to the analytic aggregate within tolerance. The variants
// schedule work very differently (one serialized shard versus parallel
// shards exchanging through mailboxes and batch frames), so the
// equivalence is on the protocol's fixed point — the aggregate every
// node agrees on — not on trajectories.
type equivCase struct {
	name    string
	size    int
	field   string
	dropP   float64 // fabric-level message loss
	count   bool    // size estimation: leader indicator, field "size"
	churn   bool    // one churn epoch: values change, clock restarts
	want    float64
	tol     float64
	varTol  float64 // convergence threshold on the cross-node variance
	timeout time.Duration
}

func equivMatrix(short bool) []equivCase {
	cases := []equivCase{
		{
			name: "avg-lossless", size: 16, field: "avg",
			want: 7.5, tol: 0.05, timeout: 5 * time.Second,
		},
		{
			name: "avg-loss20", size: 12, field: "avg", dropP: 0.2,
			// Loss breaks exact mass conservation (§2); every variant
			// must stay near the true mean, and near each other. The
			// variance threshold is looser because ongoing loss keeps
			// perturbing the consensus, and the mean tolerance is ≈ 4σ
			// of the observed drift (each dropped in-flight push loses
			// mass; scheduling decides which): tighter bounds flake on
			// slow boxes without catching anything a broken runtime
			// wouldn't blow past.
			want: 5.5, tol: 1.2, varTol: 1e-4, timeout: 8 * time.Second,
		},
		{
			// The size field gossips the §4 indicator average 1/N; the
			// decoded estimate is its reciprocal. Equivalence is checked
			// on the raw field (±0.002 here is ≈ ±0.5 on the estimate).
			name: "count-lossless", size: 16, field: "size", count: true,
			want: 1.0 / 16, tol: 0.002, timeout: 5 * time.Second,
		},
	}
	if !short {
		cases = append(cases, equivCase{
			name: "avg-churn-epoch", size: 12, field: "avg", churn: true,
			want: 9, tol: 0.1, timeout: 8 * time.Second,
		})
	}
	return cases
}

// runEquivCase executes one matrix entry on a runtime with the given
// worker count and returns the converged snapshot of the case's field.
func runEquivCase(t *testing.T, tc equivCase, workers int, seed uint64) []float64 {
	t.Helper()
	schema := core.AverageSchema()
	value := func(i int) float64 { return float64(i) }
	cfg := ClusterConfig{
		Size:         tc.size,
		Schema:       schema,
		Value:        value,
		CycleLength:  2 * time.Millisecond,
		ReplyTimeout: 30 * time.Millisecond,
		Workers:      workers,
		Seed:         seed,
	}
	if tc.count {
		schema = core.SummarySchema()
		sizeIdx, err := schema.Index("size")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Schema = schema
		cfg.InitState = func(i int) func(uint64, float64) core.State {
			return func(_ uint64, v float64) core.State {
				st := schema.InitState(v)
				if i == 0 {
					st[sizeIdx] = 1
				}
				return st
			}
		}
	}
	if tc.dropP > 0 {
		cfg.Fabric = transport.NewFabric(
			transport.WithDropProbability(tc.dropP),
			transport.WithSeed(seed),
			transport.WithInboxSize(1<<12),
		)
	}
	if tc.churn {
		clock, err := epoch.NewClock(time.Now(), 120*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Clock = clock
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(context.Background())
	defer c.Stop()

	if tc.churn {
		// One churn epoch: every node's local value jumps mid-run; the
		// epoch restart must carry every variant to the new average.
		time.Sleep(30 * time.Millisecond)
		for i, n := range c.Nodes() {
			n.SetValue(float64(i) + 3.5)
		}
	}

	varTol := tc.varTol
	if varTol == 0 {
		varTol = 1e-6
	}
	deadline := time.Now().Add(tc.timeout)
	for {
		vals, err := c.Snapshot(tc.field)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Variance(vals) <= varTol && math.Abs(stats.Mean(vals)-tc.want) <= tc.tol {
			return vals
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s/%dw stuck: mean %g (want %g ± %g), variance %g",
				tc.name, workers, stats.Mean(vals), tc.want, tc.tol, stats.Variance(vals))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrossRuntimeEquivalence runs the scenario matrix on every runtime
// variant with the same seeds and checks that they all converge to the
// same aggregate within tolerance — the contract that lets callers pick
// any worker count without revalidating the protocol. The runtime runs
// twice: workers=1 (one shard, fully serialized) and workers=4
// (parallel shard workers, cross-shard exchanges through mailboxes,
// work stealing armed), so the fixed point is pinned independent of
// GOMAXPROCS. The -race CI
// job runs this test too, which exercises the parallel shards under
// the race detector.
func TestCrossRuntimeEquivalence(t *testing.T) {
	variants := []struct {
		name    string
		workers int
	}{
		{"heap-1w", 1},
		{"heap-4w", 4},
	}
	for _, tc := range equivMatrix(testing.Short()) {
		t.Run(tc.name, func(t *testing.T) {
			means := make([]float64, len(variants))
			for i, v := range variants {
				vals := runEquivCase(t, tc, v.workers, 1234)
				means[i] = stats.Mean(vals)
				if math.Abs(means[i]-tc.want) > tc.tol {
					t.Errorf("%s mean %g, want %g ± %g", v.name, means[i], tc.want, tc.tol)
				}
			}
			for i := range variants {
				for j := i + 1; j < len(variants); j++ {
					if d := math.Abs(means[i] - means[j]); d > 2*tc.tol {
						t.Errorf("runtimes disagree by %g (%s %g, %s %g), want ≤ %g",
							d, variants[i].name, means[i], variants[j].name, means[j], 2*tc.tol)
					}
				}
			}
		})
	}
}
