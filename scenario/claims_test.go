package scenario_test

import (
	"context"
	"math"
	"strconv"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/scenario"
)

// The paper's evaluation claims at reduced scale, each one batch of
// specs seeded as cmd/figures seeds its artifacts: the base seed XOR
// the SeedTag of the raw coordinates.

// runBatch runs specs as one batch and returns the streamed rows.
func runBatch(t *testing.T, specs []scenario.Spec) []scenario.Result {
	t.Helper()
	var col scenario.Collector
	if err := scenario.Run(context.Background(), specs, &col); err != nil {
		t.Fatal(err)
	}
	return col.Results()
}

// driverSeed is a figure driver's per-combination seed.
func driverSeed(seed uint64, a, b string, n int) uint64 {
	return seed ^ scenario.SeedTag(a, b, strconv.Itoa(n))
}

// geometricRates returns, per cell, each repeat's geometric-mean
// per-cycle rate (σ²_C/σ²₀)^(1/C) (0 once either end has converged
// past float precision) and its final mean's drift |μ_C − μ₀|/σ₀.
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

// meanPositive averages the rates of the runs that had not converged
// past float precision.
func meanPositive(rates []float64) float64 {
	var kept []float64
	for _, r := range rates {
		if r > 0 {
			kept = append(kept, r)
		}
	}
	return stats.Mean(kept)
}

// TestFig3aSmallScale: the one-cycle reduction σ₁²/σ₀² of Figure 3(a)
// sits within 0.05 of 1/e (rand) and 1/(2√e) (seq) on both overlays
// and at both sizes.
func TestFig3aSmallScale(t *testing.T) {
	var specs []scenario.Spec
	for _, sel := range []scenario.Selector{scenario.SelectorRand, scenario.SelectorSeq} {
		for _, topo := range []scenario.Topology{scenario.TopologyComplete, scenario.TopologyKRegular} {
			for _, n := range []int{100, 1000} {
				specs = append(specs, scenario.Spec{
					Size: n, Cycles: 1, Selector: sel, Topology: topo, ViewSize: 20,
					Repeats: 10, Seed: driverSeed(1, sel.String(), topo.String(), n),
				})
			}
		}
	}
	ratios := make([][]float64, len(specs))
	for _, r := range runBatch(t, specs) {
		if r.Cycle == 1 {
			ratios[r.Cell] = append(ratios[r.Cell], r.Reduction)
		}
	}
	for i, s := range specs {
		want := 1 / math.E
		if s.Selector == scenario.SelectorSeq {
			want = 1 / (2 * math.Sqrt(math.E))
		}
		if len(ratios[i]) != s.Repeats {
			t.Errorf("%s, %s at N=%d: %d runs folded, want %d", s.Selector, s.Topology, s.Size, len(ratios[i]), s.Repeats)
		}
		if got := stats.Mean(ratios[i]); math.Abs(got-want) > 0.05 {
			t.Errorf("%s, %s at N=%d: reduction %.4f, want ≈ %.4f", s.Selector, s.Topology, s.Size, got, want)
		}
	}
}

// TestFig3bSmallScale: while iterating AVG, every cycle's mean
// reduction σᵢ²/σᵢ₋₁² stays within a broad band around 1/(2√e).
func TestFig3bSmallScale(t *testing.T) {
	spec := scenario.Spec{
		Size: 2000, Cycles: 10, Topology: scenario.TopologyComplete, ViewSize: 20,
		Repeats: 5, Seed: driverSeed(2, "seq", "complete", 2000),
	}
	sums := make([]float64, spec.Cycles+1)
	counts := make([]int, spec.Cycles+1)
	for _, r := range runBatch(t, []scenario.Spec{spec}) {
		if r.Cycle > 0 {
			sums[r.Cycle] += r.Reduction
			counts[r.Cycle]++
		}
	}
	for c := 1; c <= spec.Cycles; c++ {
		if counts[c] != spec.Repeats {
			t.Fatalf("cycle %d: %d runs, want %d", c, counts[c], spec.Repeats)
		}
		if mean := sums[c] / float64(counts[c]); mean < 0.2 || mean > 0.45 {
			t.Errorf("cycle %d: ratio %.4f outside [0.2, 0.45]", c, mean)
		}
	}
}

// TestCyclesToAccuracySmall: the §5 claim. Cutting the variance by
// 99.9 % takes ≈ ln(1000)/ln(1/rate) cycles: pm 5, rand 7, seq 6.
func TestCyclesToAccuracySmall(t *testing.T) {
	bands := []struct {
		sel    scenario.Selector
		lo, hi float64
	}{
		{scenario.SelectorPM, 4, 7},
		{scenario.SelectorRand, 6, 9},
		{scenario.SelectorSeq, 5, 8},
	}
	const runs = 5
	var specs []scenario.Spec
	for _, b := range bands {
		specs = append(specs, scenario.Spec{
			Size: 1000, Cycles: 200, Selector: b.sel, TargetRatio: 1e-3,
			Repeats: runs, Seed: driverSeed(4, b.sel.String(), "ctacc", 1000),
		})
	}
	first := make([]scenario.Result, len(specs)*runs)
	last := make([]scenario.Result, len(specs)*runs)
	for _, r := range runBatch(t, specs) {
		if r.Cycle == 0 {
			first[r.Cell*runs+r.Rep] = r
		}
		last[r.Cell*runs+r.Rep] = r
	}
	for i, b := range bands {
		var cycles []float64
		for rep := 0; rep < runs; rep++ {
			f, l := first[i*runs+rep], last[i*runs+rep]
			if l.Variance > 1e-3*f.Variance {
				t.Fatalf("%s rep %d did not reach 1e-3 in %d cycles", b.sel, rep, specs[i].Cycles)
			}
			cycles = append(cycles, float64(l.Cycle))
		}
		if got := stats.Mean(cycles); got < b.lo || got > b.hi {
			t.Errorf("%s: %.1f cycles to 1e-3, want within [%g, %g]", b.sel, got, b.lo, b.hi)
		}
	}
}

// TestLossAblationMonotone: more reply loss converges more slowly (a
// higher per-cycle rate) and, since a lost reply destroys mass, drifts
// the mean further; a lossless run keeps it.
func TestLossAblationMonotone(t *testing.T) {
	var specs []scenario.Spec
	for _, p := range []float64{0, 0.2, 0.4} {
		specs = append(specs, scenario.Spec{
			Size: 1000, Cycles: 15, Loss: scenario.LossReply, LossProb: p,
			Repeats: 8, Seed: driverSeed(5, "seq", "loss", int(p*1e6)),
		})
	}
	rates, drifts := geometricRates(specs, runBatch(t, specs))
	rate := []float64{stats.Mean(rates[0]), stats.Mean(rates[1]), stats.Mean(rates[2])}
	drift := []float64{stats.Mean(drifts[0]), stats.Mean(drifts[1]), stats.Mean(drifts[2])}
	if !(rate[0] < rate[1] && rate[1] < rate[2]) {
		t.Errorf("reduction rates not monotone in loss: %v", rate)
	}
	if drift[0] > 1e-9 {
		t.Errorf("lossless drift = %g, want ~0", drift[0])
	}
	if drift[2] <= drift[0] {
		t.Errorf("drift not increasing with loss: %v", drift)
	}
}

// TestCrashAblationErrorGrowsWithFraction: crashing more nodes moves
// the survivors' converged mean further from the pre-crash mean, while
// the survivors still converge.
func TestCrashAblationErrorGrowsWithFraction(t *testing.T) {
	fractions := []float64{0, 0.2, 0.5}
	var specs []scenario.Spec
	for _, f := range fractions {
		crash := f
		if crash == 0 {
			// Removes no one but keeps the crash permutation draw and
			// the pre-crash row.
			crash = math.SmallestNonzeroFloat64
		}
		specs = append(specs, scenario.Spec{
			Size: 2000, Cycles: 15, CrashFraction: crash,
			Repeats: 8, Seed: driverSeed(6, "seq", "crash", int(f*1e6)),
		})
	}
	errs := make([][]float64, len(specs))
	var trueMean, initialSD, survivorVar0 float64
	for _, r := range runBatch(t, specs) {
		switch r.Cycle {
		case -1:
			trueMean, initialSD = r.Mean, math.Sqrt(r.Variance)
		case 0:
			survivorVar0 = r.Variance
		case specs[r.Cell].Cycles:
			errs[r.Cell] = append(errs[r.Cell], math.Abs(r.Mean-trueMean)/initialSD)
			if ratio := r.Variance / survivorVar0; ratio > 1e-4 {
				t.Errorf("fraction %g rep %d: survivors failed to converge (ratio %g)", fractions[r.Cell], r.Rep, ratio)
			}
		}
	}
	e := []float64{stats.Mean(errs[0]), stats.Mean(errs[1]), stats.Mean(errs[2])}
	if e[0] > 1e-9 {
		t.Errorf("no-crash error = %g", e[0])
	}
	if e[2] <= e[1] || e[1] <= e[0] {
		t.Errorf("crash error not monotone: %v", e)
	}
}

// TestTopologySweepOrdering: ring mixing is diffusive, so its
// per-cycle reduction is far worse than the complete graph's.
func TestTopologySweepOrdering(t *testing.T) {
	var specs []scenario.Spec
	for _, topo := range []scenario.Topology{scenario.TopologyComplete, scenario.TopologyRing} {
		specs = append(specs, scenario.Spec{
			Size: 2000, Cycles: 15, Topology: topo, ViewSize: 20,
			Repeats: 5, Seed: driverSeed(7, "seq", topo.String(), 2000),
		})
	}
	rates, _ := geometricRates(specs, runBatch(t, specs))
	complete, ring := meanPositive(rates[0]), meanPositive(rates[1])
	if !(complete < 0.35 && ring > complete+0.2) {
		t.Errorf("complete=%.3f ring=%.3f; ring should be much slower", complete, ring)
	}
}

// TestViewSizeSweepImprovesWithK: a 2-regular overlay is a union of
// cycles and converges much more slowly than the paper's k = 20.
func TestViewSizeSweepImprovesWithK(t *testing.T) {
	var specs []scenario.Spec
	for _, k := range []int{2, 20} {
		specs = append(specs, scenario.Spec{
			Size: 2000, Cycles: 10, Topology: scenario.TopologyKRegular, ViewSize: k,
			Repeats: 5, Seed: driverSeed(8, "seq", "ksweep", k),
		})
	}
	rates, _ := geometricRates(specs, runBatch(t, specs))
	k2, k20 := meanPositive(rates[0]), meanPositive(rates[1])
	if !(k20 < k2) {
		t.Errorf("rate at k=20 (%.3f) not better than k=2 (%.3f)", k20, k2)
	}
}

func TestScenarioOneCycleReductionMatchesTheory(t *testing.T) {
	// Sanity link between the scenario engine and the §3.3 theory: pm
	// one-cycle reduction on the complete graph averages ≈ 1/4.
	var col scenario.Collector
	err := scenario.Run(context.Background(), []scenario.Spec{{
		Size: 1000, Cycles: 1, Selector: scenario.SelectorPM, Repeats: 8, Seed: 9,
	}}, &col)
	if err != nil {
		t.Fatal(err)
	}
	var acc, before float64
	n := 0
	for _, r := range col.Results() {
		if r.Cycle == 0 {
			before = r.Variance
			continue
		}
		acc += r.Variance / before
		n++
	}
	want, ok := sim.TheoreticalRate("pm")
	if got := acc / float64(n); !ok || math.Abs(got-want) > 0.05 {
		t.Fatalf("pm one-cycle = %.4f, want ≈ %.4f", got, want)
	}
}
