// Command figures regenerates every evaluation artifact of the paper
// (Figures 3(a), 3(b) and 4) plus the repository's ablation studies,
// printing gnuplot-friendly TSV to stdout.
//
// Usage:
//
//	figures -fig 3a [-scale paper|quick] [-seed N]
//	figures -fig 3b
//	figures -fig 4
//	figures -fig rates          # §3.3 closed-form vs measured rates
//	figures -fig cycles         # §5 cycles-to-99.9% claim
//	figures -fig loss           # E6 message-loss ablation
//	figures -fig crash          # E6 crash ablation
//	figures -fig topology       # overlay-sensitivity ablation
//	figures -fig viewsize       # k-sweep ablation
//
// The paper scale runs the exact parameters of the publication (N up to
// 100 000, 50 runs) and takes minutes; quick scale shrinks sizes ~10× for
// a fast smoke pass with the same shape.
//
// -shards routes the shardable sweep combinations (seq pairing on the
// complete overlay) of figures 3a and 3b through the kernel's sharded
// tournament executor (-shards -1 = one shard per core) — the
// paper-scale path. Sharded runs are statistically equivalent but not
// bit-identical to the default sequential execution, so fixed-seed
// reference output uses -shards 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func main() {
	fig := flag.String("fig", "3a", "artifact to regenerate: 3a, 3b, 4, rates, cycles, loss, crash, topology, viewsize")
	scale := flag.String("scale", "paper", "paper (full-size) or quick (~10x smaller)")
	seed := flag.Uint64("seed", 0, "override the experiment seed (0 keeps the default)")
	shards := flag.Int("shards", 0, "sharded execution for shardable sweeps: 0 = sequential, -1 = one shard per core")
	flag.Parse()
	// One signal-scoped context for the whole artifact: Ctrl-C aborts a
	// mid-flight sweep within one cycle per in-flight run.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Stdout, *fig, *scale, *seed, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// run regenerates one artifact and writes its TSV to w.
func run(ctx context.Context, w io.Writer, fig, scale string, seed uint64, shards int) error {
	quick := scale == "quick"
	if !quick && scale != "paper" {
		return fmt.Errorf("unknown scale %q (want paper or quick)", scale)
	}
	switch fig {
	case "3a":
		cfg := experiments.DefaultFig3a()
		if quick {
			cfg.Sizes = []int{100, 300, 1000, 3000, 10000}
			cfg.Runs = 10
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		cfg.Shards = shards
		series, err := experiments.Fig3a(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "# Figure 3(a): variance reduction after one AVG cycle vs network size")
		printRateReferences(w)
		printSeries(w, series)
	case "3b":
		cfg := experiments.DefaultFig3b()
		if quick {
			cfg.Size = 10000
			cfg.Runs = 10
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		cfg.Shards = shards
		series, err := experiments.Fig3b(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# Figure 3(b): per-cycle variance reduction while iterating AVG, N = %d\n", cfg.Size)
		printRateReferences(w)
		printSeries(w, series)
	case "4":
		cfg := experiments.DefaultFig4()
		if quick {
			cfg.MinSize, cfg.MaxSize = 9000, 11000
			cfg.Fluctuation = 10
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		reports, err := experiments.Fig4(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.Fig4TSV(reports))
	case "rates":
		return printRatesTable(w, quick, seed)
	case "cycles":
		cfg := experiments.DefaultCyclesToAccuracy()
		if quick {
			cfg.Size = 2000
			cfg.Runs = 10
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		series, err := experiments.CyclesToAccuracy(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# E5: cycles until variance ratio ≤ %g (paper §5: ln(1000) ≈ 7 for rand)\n", cfg.Target)
		printSeries(w, series)
	case "loss":
		cfg := experiments.DefaultLossAblation()
		if quick {
			cfg.Size = 2000
			cfg.Runs = 8
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		res, err := experiments.LossAblation(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "# E6 (loss): getPair_seq under message loss")
		fmt.Fprintln(w, "# loss_prob\treduction_rate\tmean_drift_sd_units")
		for _, r := range res {
			fmt.Fprintf(w, "%.2f\t%.4f\t%.5f\n", r.LossProb, r.ReductionRate, r.MeanDrift)
		}
	case "crash":
		cfg := experiments.DefaultCrashAblation()
		if quick {
			cfg.Size = 2000
			cfg.Runs = 8
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		res, err := experiments.CrashAblation(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "# E6 (crash): estimate error after crashing a fraction of nodes at cycle 0")
		fmt.Fprintln(w, "# crash_fraction\tmean_error_sd_units\tfinal_variance_ratio")
		for _, r := range res {
			fmt.Fprintf(w, "%.2f\t%.5f\t%.3g\n", r.Fraction, r.MeanError, r.FinalVarianceRatio)
		}
	case "topology":
		cfg := experiments.DefaultTopologySweep()
		if quick {
			cfg.Size = 2000
			cfg.Runs = 8
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		series, err := experiments.TopologySweep(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# Overlay ablation: geometric-mean per-cycle rate over %d cycles (lower = faster)\n", cfg.Cycles)
		printSeries(w, series)
	case "viewsize":
		cfg := experiments.DefaultViewSizeSweep()
		if quick {
			cfg.Size = 2000
			cfg.Runs = 5
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		series, err := experiments.ViewSizeSweep(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "# View-size ablation: per-cycle rate on k-regular overlays")
		fmt.Fprint(w, series.TSV())
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

// printSeries renders each series as a TSV block separated by blank
// lines (gnuplot index-style).
func printSeries(w io.Writer, series []*stats.Series) {
	for _, s := range series {
		fmt.Fprintln(w)
		fmt.Fprint(w, s.TSV())
	}
}

// printRateReferences echoes the dotted reference lines of Figure 3.
func printRateReferences(w io.Writer) {
	randRate, _ := sim.TheoreticalRate("rand")
	seqRate, _ := sim.TheoreticalRate("seq")
	fmt.Fprintf(w, "# theory: 1/e = %.4f (rand), 1/(2*sqrt(e)) = %.4f (seq)\n", randRate, seqRate)
}

// printRatesTable measures the one-cycle reduction of every selector on
// the complete graph and prints it against the closed forms of §3.3.
func printRatesTable(w io.Writer, quick bool, seed uint64) error {
	n, runs := 20000, 20
	if quick {
		n, runs = 4000, 10
	}
	if seed == 0 {
		seed = 99
	}
	fmt.Fprintln(w, "# E4: measured one-cycle variance reduction vs theory (complete graph)")
	fmt.Fprintf(w, "# selector\ttheory\tmeasured\tstderr\truns (N=%d)\n", n)
	for _, sel := range []string{"pm", "rand", "seq", "pmrand"} {
		theory, _ := sim.TheoreticalRate(sel)
		var acc stats.Running
		for run := 0; run < runs; run++ {
			rng := xrand.New(seed + uint64(run)*7919)
			ratio, err := measureOnce(sel, n, rng)
			if err != nil {
				return err
			}
			acc.Add(ratio)
		}
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\t%.4f\t%d\n", sel, theory, acc.Mean(), acc.StdErr(), runs)
	}
	return nil
}

// measureOnce runs one AVG cycle with the named selector on a fresh
// complete graph and Gaussian vector.
func measureOnce(sel string, n int, rng *xrand.Rand) (float64, error) {
	g, err := experiments.BuildTopology(experiments.Complete, n, 0, rng)
	if err != nil {
		return 0, err
	}
	selector, err := sim.NewSelector(sel)
	if err != nil {
		return 0, err
	}
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.NormFloat64()
	}
	kern, err := sim.New(sim.Config{Graph: g, Selector: selector, RNG: rng})
	if err != nil {
		return 0, err
	}
	if err := kern.SetValues(0, values); err != nil {
		return 0, err
	}
	before := stats.Variance(kern.Column(0))
	kern.Cycle()
	return stats.Variance(kern.Column(0)) / before, nil
}
