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
// Each artifact is one entry of the artifacts table: its default seed,
// the scenario specs it runs at each scale, and the reduction that
// prints its TSV from the streamed rows.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"syscall"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/xrand"
	"repro/scenario"
)

func main() {
	fig := flag.String("fig", "3a", "artifact to regenerate: 3a, 3b, 4, rates, cycles, loss, crash, topology, viewsize")
	scale := flag.String("scale", "paper", "paper (full-size) or quick (~10x smaller)")
	seed := flag.Uint64("seed", 0, "override the experiment seed (0 keeps the default)")
	flag.Parse()
	// One signal-scoped context for the whole artifact: Ctrl-C aborts a
	// mid-flight sweep within one cycle per in-flight run.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Stdout, *fig, *scale, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// artifact is one evaluation artifact. Each spec's Seed holds the
// scenario.SeedTag of its coordinates (raw values, e.g. "seq",
// "complete", "1000"); run XORs the artifact's seed into it, so every
// combination draws an independent stream reproducible from one
// number.
type artifact struct {
	seed         uint64
	paper, quick []scenario.Spec
	report       func(ctx context.Context, w io.Writer, specs []scenario.Spec) error
}

// artifacts is the evaluation, one entry per -fig name.
var artifacts = map[string]artifact{
	"3a": {
		seed:   1,
		paper:  fig3("fig3a", 1, 50, 100, 300, 1000, 3000, 10000, 30000, 100000),
		quick:  fig3("fig3a", 1, 10, 100, 300, 1000, 3000, 10000),
		report: batch(printFig3a),
	},
	"3b": {
		seed:   2,
		paper:  fig3("fig3b", 30, 50, 100000),
		quick:  fig3("fig3b", 30, 10, 10000),
		report: batch(printFig3b),
	},
	"4": {
		seed:   4,
		paper:  fig4(90000, 110000, 100),
		quick:  fig4(9000, 11000, 10),
		report: printFig4,
	},
	"rates": {
		seed:   99,
		paper:  rates(20000, 20),
		quick:  rates(4000, 10),
		report: printRates,
	},
	"cycles": {
		seed:   5,
		paper:  cyclesToAccuracy(10000, 20),
		quick:  cyclesToAccuracy(2000, 10),
		report: batch(printCycles),
	},
	"loss": {
		seed:   6,
		paper:  lossSweep(10000, 20),
		quick:  lossSweep(2000, 8),
		report: batch(printLoss),
	},
	"crash": {
		seed:   7,
		paper:  crashSweep(10000, 20),
		quick:  crashSweep(2000, 8),
		report: batch(printCrash),
	},
	"topology": {
		seed:   8,
		paper:  topologySweep(10000, 20),
		quick:  topologySweep(2000, 8),
		report: batch(printTopology),
	},
	"viewsize": {
		seed:   9,
		paper:  viewSizeSweep(10000, 10),
		quick:  viewSizeSweep(2000, 5),
		report: batch(printViewSize),
	},
}

// run regenerates one artifact and writes its TSV to w; seed 0 keeps
// the artifact's default.
func run(ctx context.Context, w io.Writer, fig, scale string, seed uint64) error {
	a, ok := artifacts[fig]
	specs := a.paper
	switch scale {
	case "paper":
	case "quick":
		specs = a.quick
	default:
		return fmt.Errorf("unknown scale %q (want paper or quick)", scale)
	}
	if !ok {
		return fmt.Errorf("unknown figure %q", fig)
	}
	if seed == 0 {
		seed = a.seed
	}
	specs = slices.Clone(specs)
	for i := range specs {
		specs[i].Seed ^= seed
	}
	return a.report(ctx, w, specs)
}

// fig3 crosses the two selectors and two overlays Figure 3 plots with
// the given sizes, selector outermost.
func fig3(name string, cycles, runs int, sizes ...int) []scenario.Spec {
	var specs []scenario.Spec
	for _, sel := range []scenario.Selector{scenario.SelectorRand, scenario.SelectorSeq} {
		for _, topo := range []scenario.Topology{scenario.TopologyComplete, scenario.TopologyKRegular} {
			for _, n := range sizes {
				specs = append(specs, scenario.Spec{
					Name: name, Size: n, Cycles: cycles, Selector: sel, Topology: topo,
					ViewSize: 20, Repeats: runs, Seed: tag(sel.String(), topo.String(), n),
				})
			}
		}
	}
	return specs
}

// fig4 is size estimation under the day/night oscillation between min
// and max (period 400 cycles; the paper does not state it) with the
// given per-cycle turnover, 30-cycle epochs over 1000 cycles.
func fig4(min, max, fluctuation int) []scenario.Spec {
	return []scenario.Spec{{
		Name:   "fig4",
		Size:   (min + max) / 2,
		Cycles: 1000,
		Churn: &scenario.ChurnSpec{
			Model: "oscillating", Min: min, Max: max, Period: 400, Fluctuation: fluctuation,
		},
		SizeEstimation: &scenario.SizeEstimationSpec{EpochCycles: 30, Instances: 1},
	}}
}

// rates is one AVG cycle per selector on the complete graph.
func rates(n, runs int) []scenario.Spec {
	var specs []scenario.Spec
	for _, sel := range []scenario.Selector{scenario.SelectorPM, scenario.SelectorRand, scenario.SelectorSeq, scenario.SelectorPMRand} {
		specs = append(specs, scenario.Spec{Name: "rates", Size: n, Cycles: 1, Selector: sel, Repeats: runs})
	}
	return specs
}

// cyclesToAccuracy is the §5 claim: cycles until σ²/σ₀² ≤ 10⁻³ on the
// complete graph, within a 200-cycle horizon.
func cyclesToAccuracy(n, runs int) []scenario.Spec {
	var specs []scenario.Spec
	for _, sel := range []scenario.Selector{scenario.SelectorPM, scenario.SelectorRand, scenario.SelectorSeq} {
		specs = append(specs, scenario.Spec{
			Name: "cycles-to-accuracy", Size: n, Cycles: 200, Selector: sel,
			TargetRatio: 1e-3, Repeats: runs, Seed: tag(sel.String(), "ctacc", n),
		})
	}
	return specs
}

// lossSweep runs getPair_seq for 20 cycles under the deployed
// protocol's asymmetric reply loss.
func lossSweep(n, runs int) []scenario.Spec {
	var specs []scenario.Spec
	for _, p := range []float64{0, 0.05, 0.1, 0.2, 0.4} {
		specs = append(specs, scenario.Spec{
			Name: "loss-ablation", Size: n, Cycles: 20, Loss: scenario.LossReply, LossProb: p,
			Repeats: runs, Seed: tag("seq", "loss", int(p*1e6)),
		})
	}
	return specs
}

// crashSweep kills a fraction of nodes right after initialization and
// runs the survivors for 20 cycles.
func crashSweep(n, runs int) []scenario.Spec {
	var specs []scenario.Spec
	for _, f := range []float64{0, 0.01, 0.05, 0.1, 0.2, 0.5} {
		crash := f
		if crash == 0 {
			// A fraction too small to remove anyone still draws the
			// crash permutation, as the historical driver did at 0,
			// and still emits the pre-crash row the reduction reads.
			crash = math.SmallestNonzeroFloat64
		}
		specs = append(specs, scenario.Spec{
			Name: "crash-ablation", Size: n, Cycles: 20, CrashFraction: crash,
			Repeats: runs, Seed: tag("seq", "crash", int(f*1e6)),
		})
	}
	return specs
}

// topologySweep runs getPair_seq for 15 cycles on every overlay; the
// structured ones look fine for one cycle and only reveal their
// diffusive mixing over many.
func topologySweep(n, runs int) []scenario.Spec {
	var specs []scenario.Spec
	for _, topo := range []scenario.Topology{
		scenario.TopologyComplete, scenario.TopologyKRegular, scenario.TopologyView,
		scenario.TopologySmallWorld, scenario.TopologyScaleFree, scenario.TopologyRing,
	} {
		specs = append(specs, scenario.Spec{
			Name: "topology-sweep", Size: n, Cycles: 15, Topology: topo, ViewSize: 20,
			Repeats: runs, Seed: tag("seq", topo.String(), n),
		})
	}
	return specs
}

// viewSizeSweep runs getPair_seq for 15 cycles on k-regular overlays:
// how small could the paper's fixed view of 20 have been?
func viewSizeSweep(n, runs int) []scenario.Spec {
	var specs []scenario.Spec
	for _, k := range []int{2, 4, 8, 20, 40} {
		specs = append(specs, scenario.Spec{
			Name: "viewsize-sweep", Size: n, Cycles: 15, Topology: scenario.TopologyKRegular, ViewSize: k,
			Repeats: runs, Seed: tag("seq", "ksweep", k),
		})
	}
	return specs
}

// tag is the seed offset of one driver combination: scenario.SeedTag
// over raw coordinate values, the figure drivers' historical
// derivation (grid cells tag "param=value" fragments instead).
func tag(a, b string, n int) uint64 {
	return scenario.SeedTag(a, b, strconv.Itoa(n))
}

// batch runs all specs of an artifact as one scenario.Run batch and
// hands the rows to reduce.
func batch(reduce func(w io.Writer, specs []scenario.Spec, rows []scenario.Result) error) func(context.Context, io.Writer, []scenario.Spec) error {
	return func(ctx context.Context, w io.Writer, specs []scenario.Spec) error {
		var col scenario.Collector
		if err := scenario.Run(ctx, specs, &col); err != nil {
			return err
		}
		return reduce(w, specs, col.Results())
	}
}

// seriesBy gives each cell the series named label(spec): one series
// per distinct label, returned in order of first use.
func seriesBy(specs []scenario.Spec, label func(scenario.Spec) string) (byCell, series []*stats.Series) {
	named := map[string]*stats.Series{}
	for _, s := range specs {
		name := label(s)
		if named[name] == nil {
			named[name] = stats.NewSeries(name)
			series = append(series, named[name])
		}
		byCell = append(byCell, named[name])
	}
	return byCell, series
}

// pairLabel is Figure 3's legend entry.
func pairLabel(s scenario.Spec) string {
	return fmt.Sprintf("getPair_%s, %s", s.Selector, s.Topology)
}

// printFig3a folds each run's one-cycle reduction σ₁²/σ₀² into its
// series at x = network size.
func printFig3a(w io.Writer, specs []scenario.Spec, rows []scenario.Result) error {
	byCell, series := seriesBy(specs, pairLabel)
	for _, r := range rows {
		if r.Cycle == 1 {
			byCell[r.Cell].Observe(float64(specs[r.Cell].Size), r.Reduction)
		}
	}
	fmt.Fprintln(w, "# Figure 3(a): variance reduction after one AVG cycle vs network size")
	printRateReferences(w)
	printSeries(w, series)
	return nil
}

// printFig3b folds each run's per-cycle reduction σᵢ²/σᵢ₋₁² into its
// series at x = cycle, while the previous cycle's variance is nonzero
// (the reduction is NaN once the run has converged past float
// precision).
func printFig3b(w io.Writer, specs []scenario.Spec, rows []scenario.Result) error {
	byCell, series := seriesBy(specs, pairLabel)
	for _, r := range rows {
		if r.Cycle > 0 && !math.IsNaN(r.Reduction) {
			byCell[r.Cell].Observe(float64(r.Cycle), r.Reduction)
		}
	}
	fmt.Fprintf(w, "# Figure 3(b): per-cycle variance reduction while iterating AVG, N = %d\n", specs[0].Size)
	printRateReferences(w)
	printSeries(w, series)
	return nil
}

// printFig4 prints one row per epoch: the converged estimate with its
// min/max range beside the actual size. The one run is seeded with
// scenario.RawSeed, so the epoch simulator draws xrand.New(seed).
func printFig4(ctx context.Context, w io.Writer, specs []scenario.Spec) error {
	spec := specs[0]
	spec.Seed = scenario.RawSeed(spec.Seed)
	res, err := scenario.RunSpec(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# fig4: network size estimation by anti-entropy counting")
	fmt.Fprintln(w, "# cycle\testimate\test_min\test_max\tactual_at_start\tactual_at_end\tparticipants")
	for _, r := range res.Epochs {
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.1f\t%d\t%d\t%d\n",
			r.EndCycle, r.EstimateMean, r.EstimateMin, r.EstimateMax,
			r.SizeAtStart, r.SizeAtEnd, r.Participants)
	}
	return nil
}

// printCycles reads each run's cycle count off its last row: the
// early-stop target ends it once σ²/σ₀² ≤ TargetRatio.
func printCycles(w io.Writer, specs []scenario.Spec, rows []scenario.Result) error {
	byCell, series := seriesBy(specs, func(s scenario.Spec) string {
		return fmt.Sprintf("cycles_to_%.0e_%s", s.TargetRatio, s.Selector)
	})
	var initial float64
	for i, r := range rows {
		if r.Cycle == 0 {
			initial = r.Variance
		}
		if last := i+1 == len(rows) || rows[i+1].Cycle == 0; !last {
			continue
		}
		s := specs[r.Cell]
		if r.Variance > s.TargetRatio*initial {
			return fmt.Errorf("%s did not reach %g in %d cycles", s.Selector, s.TargetRatio, s.Cycles)
		}
		byCell[r.Cell].Observe(0, float64(r.Cycle))
	}
	fmt.Fprintf(w, "# E5: cycles until variance ratio ≤ %g (paper §5: ln(1000) ≈ 7 for rand)\n", specs[0].TargetRatio)
	printSeries(w, series)
	return nil
}

// geometricRates reduces each run to its geometric-mean per-cycle rate
// (σ²_C/σ²₀)^(1/C) — 0 when either end has converged past float
// precision — and its final mean's drift |μ_C − μ₀|/σ₀, grouped by
// cell.
func geometricRates(specs []scenario.Spec, rows []scenario.Result) (rates, drifts [][]float64) {
	rates = make([][]float64, len(specs))
	drifts = make([][]float64, len(specs))
	var mean0, var0 float64
	for _, r := range rows {
		switch cycles := specs[r.Cell].Cycles; r.Cycle {
		case 0:
			mean0, var0 = r.Mean, r.Variance
		case cycles:
			rate := 0.0
			if var0 > 0 && r.Variance > 0 {
				rate = math.Pow(r.Variance/var0, 1/float64(cycles))
			}
			rates[r.Cell] = append(rates[r.Cell], rate)
			drifts[r.Cell] = append(drifts[r.Cell], math.Abs(r.Mean-mean0)/math.Sqrt(var0))
		}
	}
	return rates, drifts
}

// observeRates folds each cell's nonzero rates into its series at x(spec).
func observeRates(specs []scenario.Spec, rows []scenario.Result, byCell []*stats.Series, x func(scenario.Spec) float64) {
	rates, _ := geometricRates(specs, rows)
	for cell, rs := range rates {
		for _, rate := range rs {
			if rate > 0 {
				byCell[cell].Observe(x(specs[cell]), rate)
			}
		}
	}
}

func printLoss(w io.Writer, specs []scenario.Spec, rows []scenario.Result) error {
	rates, drifts := geometricRates(specs, rows)
	fmt.Fprintln(w, "# E6 (loss): getPair_seq under message loss")
	fmt.Fprintln(w, "# loss_prob\treduction_rate\tmean_drift_sd_units")
	for i, s := range specs {
		fmt.Fprintf(w, "%.2f\t%.4f\t%.5f\n", s.LossProb, stats.Mean(rates[i]), stats.Mean(drifts[i]))
	}
	return nil
}

func printTopology(w io.Writer, specs []scenario.Spec, rows []scenario.Result) error {
	byCell, series := seriesBy(specs, func(s scenario.Spec) string { return "seq, " + s.Topology.String() })
	observeRates(specs, rows, byCell, func(scenario.Spec) float64 { return 0 })
	fmt.Fprintf(w, "# Overlay ablation: geometric-mean per-cycle rate over %d cycles (lower = faster)\n", specs[0].Cycles)
	printSeries(w, series)
	return nil
}

func printViewSize(w io.Writer, specs []scenario.Spec, rows []scenario.Result) error {
	byCell, series := seriesBy(specs, func(scenario.Spec) string { return "seq rate vs view size" })
	observeRates(specs, rows, byCell, func(s scenario.Spec) float64 { return float64(s.ViewSize) })
	fmt.Fprintln(w, "# View-size ablation: per-cycle rate on k-regular overlays")
	fmt.Fprint(w, series[0].TSV())
	return nil
}

// printCrash measures how far the survivors' converged mean lands from
// the pre-crash mean (in initial standard deviations), and σ²_C/σ²₀
// among the survivors: convergence is unharmed, only the target moves.
func printCrash(w io.Writer, specs []scenario.Spec, rows []scenario.Result) error {
	errs := make([][]float64, len(specs))
	ratios := make([][]float64, len(specs))
	var trueMean, initialSD, survivorVar0 float64
	for _, r := range rows {
		switch r.Cycle {
		case -1:
			trueMean, initialSD = r.Mean, math.Sqrt(r.Variance)
		case 0:
			survivorVar0 = r.Variance
		case specs[r.Cell].Cycles:
			errs[r.Cell] = append(errs[r.Cell], math.Abs(r.Mean-trueMean)/initialSD)
			ratio := 0.0
			if survivorVar0 > 0 {
				ratio = r.Variance / survivorVar0
			}
			ratios[r.Cell] = append(ratios[r.Cell], ratio)
		}
	}
	fmt.Fprintln(w, "# E6 (crash): estimate error after crashing a fraction of nodes at cycle 0")
	fmt.Fprintln(w, "# crash_fraction\tmean_error_sd_units\tfinal_variance_ratio")
	for i, s := range specs {
		fmt.Fprintf(w, "%.2f\t%.5f\t%.3g\n", s.CrashFraction, stats.Mean(errs[i]), stats.Mean(ratios[i]))
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

// printRates measures the one-cycle reduction of every selector on the
// complete graph and prints it against the closed forms of §3.3. It
// keeps its own kernel loop: run r draws xrand.New(seed + r·7919), a
// stream the scenario repeat derivation does not produce.
func printRates(_ context.Context, w io.Writer, specs []scenario.Spec) error {
	fmt.Fprintln(w, "# E4: measured one-cycle variance reduction vs theory (complete graph)")
	fmt.Fprintf(w, "# selector\ttheory\tmeasured\tstderr\truns (N=%d)\n", specs[0].Size)
	for _, s := range specs {
		sel := s.Selector.String()
		theory, _ := sim.TheoreticalRate(sel)
		var acc stats.Running
		for run := 0; run < s.Repeats; run++ {
			ratio, err := measureOnce(sel, s.Size, xrand.New(s.Seed+uint64(run)*7919))
			if err != nil {
				return err
			}
			acc.Add(ratio)
		}
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\t%.4f\t%d\n", sel, theory, acc.Mean(), acc.StdErr(), s.Repeats)
	}
	return nil
}

// measureOnce runs one AVG cycle with the named selector on a fresh
// complete graph and Gaussian vector.
func measureOnce(sel string, n int, rng *xrand.Rand) (float64, error) {
	g, err := topology.Build(topology.KindComplete, n, 0, rng)
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
