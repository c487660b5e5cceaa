package repro

import (
	"context"
	"math"

	"repro/internal/stats"
	"repro/scenario"
)

// Result is the materialized outcome of Run: the streamed reduction
// rows plus repeat 0's artifacts (variance trajectory, final vector,
// exchange count, epoch reports).
type Result struct {
	// Spec is the executed spec with defaults applied (including any
	// AutoShards fallback to sequential execution).
	Spec scenario.Spec
	// Rows holds every per-cycle (or per-Δt, or per-epoch) reduction
	// row across all repeats, in stream order.
	Rows []scenario.Result
	// Sharded reports whether the sharded executor actually ran; false
	// when AutoShards fell back to the exact sequential path.
	Sharded bool
	// Variances is repeat 0's field-0 variance trajectory, index 0
	// holding the initial variance (nil in size-estimation mode).
	Variances []float64
	// FinalMean is repeat 0's final vector mean; with lossless
	// exchanges it equals the initial mean up to rounding (mass
	// conservation, §3.2).
	FinalMean float64
	// ReductionRate is repeat 0's geometric-mean per-cycle variance
	// reduction — compare with TheoreticalRate.
	ReductionRate float64
	// Values is repeat 0's final vector (every node's approximation);
	// nil in size-estimation mode.
	Values []float64
	// Exchanges counts repeat 0's performed exchanges in wait mode.
	Exchanges int
	// Epochs holds repeat 0's per-epoch reports in size-estimation
	// mode.
	Epochs []EpochReport
}

// Run executes one declarative scenario spec — the single front door to
// the sequential kernel, the sharded executor, the event-driven model
// and the §4 size estimator, routed by the spec's axes — and
// materializes the outcome. Cancelling ctx stops the run within one
// cycle and returns the context's error.
func Run(ctx context.Context, spec scenario.Spec) (*Result, error) {
	res, err := scenario.RunSpec(ctx, spec)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Spec:      res.Spec,
		Rows:      res.Rows,
		Sharded:   res.Sharded,
		Variances: res.Variances,
		Values:    res.FinalValues,
		Exchanges: res.Exchanges,
		Epochs:    res.Epochs,
	}
	if len(out.Values) > 0 {
		out.FinalMean = stats.Mean(out.Values)
	}
	if n := len(out.Variances); n > 1 {
		first, last := out.Variances[0], out.Variances[n-1]
		if first > 0 && last > 0 {
			out.ReductionRate = math.Pow(last/first, 1/float64(n-1))
		}
	}
	return out, nil
}

// SweepOptions tunes RunGrid.
type SweepOptions struct {
	// Workers bounds the scenario worker pool (≤ 0 selects GOMAXPROCS).
	// Sweeps of sharded specs usually want Workers = 1 so the shards
	// get the cores instead of the pool.
	Workers int
	// Out, when non-nil, receives the rows as they stream (CSV, JSONL
	// or any scenario.Writer) and RunGrid returns no rows. Nil collects
	// the rows in memory and returns them.
	Out scenario.Writer
}

// RunGrid expands a grid (a base spec crossed with swept axes) and
// executes every cell on a worker pool, streaming reduction rows in
// deterministic order. Cancelling ctx aborts the sweep within one
// cycle per in-flight run.
func RunGrid(ctx context.Context, grid scenario.Grid, opts SweepOptions) ([]scenario.Result, error) {
	r := scenario.Runner{Workers: opts.Workers}
	if opts.Out != nil {
		return nil, r.RunGrid(ctx, grid, opts.Out)
	}
	var col scenario.Collector
	if err := r.RunGrid(ctx, grid, &col); err != nil {
		return nil, err
	}
	return col.Results(), nil
}
