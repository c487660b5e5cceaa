package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/xrand"
	"repro/scenario"
)

func TestBuildTopologyAllKinds(t *testing.T) {
	rng := xrand.New(1)
	kinds := []TopologyKind{Complete, KRegular, RandomView, Ring, SmallWorld, ScaleFree}
	for _, k := range kinds {
		g, err := BuildTopology(k, 100, 10, rng)
		if err != nil {
			t.Errorf("BuildTopology(%s): %v", k, err)
			continue
		}
		if g.Size() != 100 {
			t.Errorf("%s: size = %d", k, g.Size())
		}
	}
	if _, err := BuildTopology("bogus", 100, 10, rng); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestFig3aSmallScale(t *testing.T) {
	cfg := Fig3aConfig{
		Sizes:      []int{100, 1000},
		Runs:       10,
		Selectors:  []string{"rand", "seq"},
		Topologies: []TopologyKind{Complete, KRegular},
		ViewSize:   20,
		Seed:       1,
	}
	series, err := Fig3a(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("got %d series, want 4 (2 selectors × 2 topologies)", len(series))
	}
	for _, s := range series {
		pts := s.Points()
		if len(pts) != 2 {
			t.Fatalf("%s: %d points, want 2", s.Name(), len(pts))
		}
		wantRate := 1 / math.E
		if strings.Contains(s.Name(), "seq") {
			wantRate = 1 / (2 * math.Sqrt(math.E))
		}
		for _, p := range pts {
			if p.N != cfg.Runs {
				t.Errorf("%s at N=%g: %d runs folded, want %d", s.Name(), p.X, p.N, cfg.Runs)
			}
			if math.Abs(p.Mean-wantRate) > 0.05 {
				t.Errorf("%s at N=%g: reduction %.4f, want ≈ %.4f", s.Name(), p.X, p.Mean, wantRate)
			}
		}
	}
}

func TestFig3aDeterministicForSeed(t *testing.T) {
	cfg := Fig3aConfig{
		Sizes:      []int{200},
		Runs:       5,
		Selectors:  []string{"seq"},
		Topologies: []TopologyKind{Complete},
		ViewSize:   20,
		Seed:       7,
	}
	s1, err := Fig3a(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Fig3a(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := s1[0].Points(), s2[0].Points()
	if p1[0].Mean != p2[0].Mean {
		t.Fatalf("same seed gave %g and %g", p1[0].Mean, p2[0].Mean)
	}
}

func TestFig3aValidation(t *testing.T) {
	if _, err := Fig3a(context.Background(), Fig3aConfig{Runs: 0}); err == nil {
		t.Fatal("zero runs accepted")
	}
}

func TestFig3bSmallScale(t *testing.T) {
	cfg := Fig3bConfig{
		Size:       2000,
		Cycles:     10,
		Runs:       5,
		Selectors:  []string{"seq"},
		Topologies: []TopologyKind{Complete},
		ViewSize:   20,
		Seed:       2,
	}
	series, err := Fig3b(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("got %d series", len(series))
	}
	pts := series[0].Points()
	if len(pts) != 10 {
		t.Fatalf("got %d cycle points, want 10", len(pts))
	}
	// Per-cycle ratios hover around the theoretical rate; later cycles
	// drift slightly but must stay within a broad physical band.
	for _, p := range pts {
		if p.Mean < 0.2 || p.Mean > 0.45 {
			t.Errorf("cycle %g: ratio %.4f outside [0.2, 0.45]", p.X, p.Mean)
		}
	}
}

func TestFig4SmallScale(t *testing.T) {
	cfg := Fig4Config{
		MinSize:           900,
		MaxSize:           1100,
		OscillationPeriod: 100,
		Fluctuation:       10,
		EpochCycles:       30,
		TotalCycles:       300,
		Instances:         1,
		Seed:              3,
	}
	reports, err := Fig4(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 10 {
		t.Fatalf("got %d epochs, want 10", len(reports))
	}
	for _, r := range reports {
		if r.SizeAtStart < 850 || r.SizeAtStart > 1150 {
			t.Errorf("epoch %d: size %d escaped the oscillation band", r.Epoch, r.SizeAtStart)
		}
		relErr := math.Abs(r.EstimateMean-float64(r.SizeAtStart)) / float64(r.SizeAtStart)
		if relErr > 0.2 {
			t.Errorf("epoch %d: estimate %.0f vs %d (%.0f%% off)",
				r.Epoch, r.EstimateMean, r.SizeAtStart, 100*relErr)
		}
	}
	tsv := Fig4TSV(reports)
	if !strings.Contains(tsv, "# cycle\testimate") {
		t.Error("TSV header missing")
	}
	if got := strings.Count(tsv, "\n"); got != 12 { // 2 header + 10 rows
		t.Errorf("TSV has %d lines, want 12", got)
	}
}

func TestFig4Validation(t *testing.T) {
	if _, err := Fig4(context.Background(), Fig4Config{MinSize: 2, MaxSize: 1}); err == nil {
		t.Fatal("inverted size band accepted")
	}
}

func TestCyclesToAccuracySmall(t *testing.T) {
	cfg := CyclesToAccuracyConfig{
		Size:      1000,
		Target:    1e-3,
		Runs:      5,
		Selectors: []string{"pm", "rand", "seq"},
		Seed:      4,
	}
	series, err := CyclesToAccuracy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, s := range series {
		byName[s.Name()] = s.Points()[0].Mean
	}
	// Theory: cycles ≈ ln(1000)/ln(1/rate) → pm 5, rand 7, seq 6.
	checks := []struct {
		key      string
		lo, hi   float64
		selector string
	}{
		{"pm", 4, 7, "pm"},
		{"rand", 6, 9, "rand"},
		{"seq", 5, 8, "seq"},
	}
	for _, c := range checks {
		var got float64
		found := false
		for name, v := range byName {
			if strings.HasSuffix(name, "_"+c.selector) {
				got, found = v, true
			}
		}
		if !found {
			t.Fatalf("series for %s missing (have %v)", c.selector, byName)
		}
		if got < c.lo || got > c.hi {
			t.Errorf("%s: %.1f cycles to 1e-3, want within [%g, %g]", c.selector, got, c.lo, c.hi)
		}
	}
}

func TestCyclesToAccuracyValidation(t *testing.T) {
	if _, err := CyclesToAccuracy(context.Background(), CyclesToAccuracyConfig{Target: 2}); err == nil {
		t.Fatal("target ≥ 1 accepted")
	}
}

func TestLossAblationMonotone(t *testing.T) {
	res, err := LossAblation(context.Background(), LossAblationConfig{
		Size:      1000,
		Cycles:    15,
		LossProbs: []float64{0, 0.2, 0.4},
		Runs:      8,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	// More loss → slower convergence (higher per-cycle rate) and more
	// mean drift.
	if !(res[0].ReductionRate < res[1].ReductionRate && res[1].ReductionRate < res[2].ReductionRate) {
		t.Errorf("reduction rates not monotone in loss: %+v", res)
	}
	if res[0].MeanDrift > 1e-9 {
		t.Errorf("lossless drift = %g, want ~0", res[0].MeanDrift)
	}
	if res[2].MeanDrift <= res[0].MeanDrift {
		t.Errorf("drift not increasing with loss: %+v", res)
	}
}

func TestCrashAblationErrorGrowsWithFraction(t *testing.T) {
	res, err := CrashAblation(context.Background(), CrashAblationConfig{
		Size:           2000,
		CrashFractions: []float64{0, 0.2, 0.5},
		Cycles:         15,
		Runs:           8,
		Seed:           6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].MeanError > 1e-9 {
		t.Errorf("no-crash error = %g", res[0].MeanError)
	}
	if res[2].MeanError <= res[1].MeanError || res[1].MeanError <= res[0].MeanError {
		t.Errorf("crash error not monotone: %+v", res)
	}
	// Convergence itself is unharmed among survivors.
	for _, r := range res {
		if r.FinalVarianceRatio > 1e-4 {
			t.Errorf("fraction %g: survivors failed to converge (ratio %g)",
				r.Fraction, r.FinalVarianceRatio)
		}
	}
}

func TestCrashAblationValidation(t *testing.T) {
	if _, err := CrashAblation(context.Background(), CrashAblationConfig{
		Size: 100, CrashFractions: []float64{1.5}, Cycles: 5, Runs: 2,
	}); err == nil {
		t.Fatal("fraction ≥ 1 accepted")
	}
}

func TestTopologySweepOrdering(t *testing.T) {
	series, err := TopologySweep(context.Background(), TopologySweepConfig{
		Size:       2000,
		ViewSize:   20,
		Cycles:     15,
		Runs:       5,
		Topologies: []TopologyKind{Complete, Ring},
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rates := map[string]float64{}
	for _, s := range series {
		rates[s.Name()] = s.Points()[0].Mean
	}
	complete := rates["seq, complete"]
	ring := rates["seq, ring"]
	// Ring mixing is diffusive: variance reduction per cycle is far
	// worse than on the complete graph.
	if !(complete < 0.35 && ring > complete+0.2) {
		t.Errorf("complete=%.3f ring=%.3f; ring should be much slower", complete, ring)
	}
}

func TestViewSizeSweepImprovesWithK(t *testing.T) {
	series, err := ViewSizeSweep(context.Background(), ViewSizeSweepConfig{
		Size:      2000,
		ViewSizes: []int{2, 20},
		Cycles:    10,
		Runs:      5,
		Seed:      8,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := series.Points()
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	// k = 2 is a union of cycles: much slower than k = 20.
	if !(pts[1].Mean < pts[0].Mean) {
		t.Errorf("rate at k=20 (%.3f) not better than k=2 (%.3f)", pts[1].Mean, pts[0].Mean)
	}
}

func TestDefaultsAreSane(t *testing.T) {
	a := DefaultFig3a()
	if a.Runs != 50 || len(a.Sizes) == 0 || a.ViewSize != 20 {
		t.Errorf("fig3a defaults: %+v", a)
	}
	b := DefaultFig3b()
	if b.Size != 100000 || b.Cycles != 30 || b.Runs != 50 {
		t.Errorf("fig3b defaults: %+v", b)
	}
	f := DefaultFig4()
	if f.MinSize != 90000 || f.MaxSize != 110000 || f.EpochCycles != 30 || f.TotalCycles != 1000 {
		t.Errorf("fig4 defaults: %+v", f)
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

func TestDefaultSizeEstimationConfigMatchesPaper(t *testing.T) {
	cfg := DefaultFig4()
	if cfg.MinSize != 90000 || cfg.MaxSize != 110000 {
		t.Errorf("size band %d..%d", cfg.MinSize, cfg.MaxSize)
	}
	if cfg.EpochCycles != 30 || cfg.TotalCycles != 1000 || cfg.Fluctuation != 100 {
		t.Errorf("cfg = %+v", cfg)
	}
}
