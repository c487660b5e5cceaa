package sim_test

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Tests of algorithm AVG (Figure 2) on the kernel's exact sequential
// path: N elementary steps per cycle over a single average field, the
// pairs drawn by one of the four §3.3 selectors.

// newAVG binds cfg.Selector to cfg.Graph in a single-average kernel and
// loads a copy of values.
func newAVG(cfg sim.Config, values []float64) (*sim.Kernel, error) {
	k, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := k.SetValues(0, values); err != nil {
		return nil, err
	}
	return k, nil
}

// mustKRegular returns a k-regular random graph.
func mustKRegular(t *testing.T, n, k int, rng *xrand.Rand) topology.Graph {
	t.Helper()
	g, err := topology.NewKRegular(n, k, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func allSelectors() []sim.Selector {
	return []sim.Selector{sim.NewPM(), sim.NewRand(), sim.NewSeq(), sim.NewPMRand()}
}

func TestNewSelectorNames(t *testing.T) {
	for _, name := range []string{"pm", "rand", "seq", "pmrand"} {
		sel, err := sim.NewSelector(name)
		if err != nil {
			t.Fatalf("sim.NewSelector(%q): %v", name, err)
		}
		if sel.Name() != name {
			t.Fatalf("selector name = %q, want %q", sel.Name(), name)
		}
	}
	if _, err := sim.NewSelector("bogus"); err == nil {
		t.Fatal("unknown selector accepted")
	}
}

func TestMassConservationAllSelectors(t *testing.T) {
	// Paper §3.2: the elementary step never changes the vector sum, so
	// the algorithm "does not introduce any errors into the
	// approximation". Checked per selector over several cycles.
	rng := xrand.New(100)
	for _, sel := range allSelectors() {
		t.Run(sel.Name(), func(t *testing.T) {
			g := mustComplete(t, 200)
			values := gaussian(200, rng)
			before := stats.Sum(values)
			kern, err := newAVG(sim.Config{Graph: g, Selector: sel, RNG: rng}, values)
			if err != nil {
				t.Fatal(err)
			}
			kern.Run(10)
			after := stats.Sum(kern.Column(0))
			if math.Abs(after-before) > 1e-9 {
				t.Fatalf("sum drifted: %.15g → %.15g", before, after)
			}
		})
	}
}

func TestMassConservationOnRandomGraph(t *testing.T) {
	rng := xrand.New(101)
	g := mustKRegular(t, 200, 20, rng)
	for _, name := range []string{"rand", "seq"} {
		sel, _ := sim.NewSelector(name)
		values := gaussian(200, rng)
		before := stats.Sum(values)
		kern, err := newAVG(sim.Config{Graph: g, Selector: sel, RNG: rng}, values)
		if err != nil {
			t.Fatal(err)
		}
		kern.Run(10)
		if after := stats.Sum(kern.Column(0)); math.Abs(after-before) > 1e-9 {
			t.Fatalf("%s: sum drifted %.15g → %.15g", name, before, after)
		}
	}
}

func TestVarianceMonotonicallyNonIncreasing(t *testing.T) {
	rng := xrand.New(102)
	for _, sel := range allSelectors() {
		t.Run(sel.Name(), func(t *testing.T) {
			g := mustComplete(t, 100)
			kern, err := newAVG(sim.Config{Graph: g, Selector: sel, RNG: rng}, gaussian(100, rng))
			if err != nil {
				t.Fatal(err)
			}
			variances := kern.Run(15)
			for i := 1; i < len(variances); i++ {
				if variances[i] > variances[i-1]*(1+1e-12) {
					t.Fatalf("variance increased at cycle %d: %g → %g",
						i, variances[i-1], variances[i])
				}
			}
		})
	}
}

func TestExponentialConvergence(t *testing.T) {
	// All selectors must reach a 1e-6 variance ratio within 30 cycles on
	// the complete graph — far slower than any of them actually is.
	rng := xrand.New(103)
	for _, sel := range allSelectors() {
		g := mustComplete(t, 1000)
		kern, err := newAVG(sim.Config{Graph: g, Selector: sel, RNG: rng}, gaussian(1000, rng))
		if err != nil {
			t.Fatal(err)
		}
		variances := kern.Run(30)
		ratio := variances[len(variances)-1] / variances[0]
		if ratio > 1e-6 {
			t.Errorf("%s: σ²₃₀/σ²₀ = %g, want ≤ 1e-6", sel.Name(), ratio)
		}
	}
}

func TestElementaryStepExactness(t *testing.T) {
	// A single controlled exchange must set both entries to the exact
	// average (checked via a 2-node complete graph where every pair is
	// (0,1)).
	rng := xrand.New(104)
	g := mustComplete(t, 2)
	kern, err := newAVG(sim.Config{Graph: g, Selector: sim.NewSeq(), RNG: rng}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	kern.Cycle()
	vals := kern.Column(0)
	if vals[0] != 2 || vals[1] != 2 {
		t.Fatalf("values = %v, want [2 2]", vals)
	}
}

// measureRate returns the mean one-cycle variance reduction over runs
// independent trials.
func measureRate(t *testing.T, name string, n, runs int, seed uint64) float64 {
	t.Helper()
	var acc stats.Running
	for run := 0; run < runs; run++ {
		rng := xrand.New(seed + uint64(run)*7919)
		sel, err := sim.NewSelector(name)
		if err != nil {
			t.Fatal(err)
		}
		g := mustComplete(t, n)
		kern, err := newAVG(sim.Config{Graph: g, Selector: sel, RNG: rng}, gaussian(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		before := stats.Variance(kern.Column(0))
		kern.Cycle()
		acc.Add(stats.Variance(kern.Column(0)) / before)
	}
	return acc.Mean()
}

func TestTheorem1RatePM(t *testing.T) {
	// GETPAIR_PM is exact: E(2^{-φ}) = 1/4 (eq. 8).
	got := measureRate(t, "pm", 10000, 10, 200)
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("pm one-cycle reduction = %.4f, want 0.25 ± 0.01", got)
	}
}

func TestTheorem1RateRand(t *testing.T) {
	// GETPAIR_RAND: E(2^{-φ}) = 1/e ≈ 0.3679 (eq. 10).
	got := measureRate(t, "rand", 10000, 10, 201)
	if math.Abs(got-1/math.E) > 0.015 {
		t.Fatalf("rand one-cycle reduction = %.4f, want %.4f ± 0.015", got, 1/math.E)
	}
}

func TestTheorem1RateSeq(t *testing.T) {
	// GETPAIR_SEQ ≈ 1/(2√e) ≈ 0.3033 (eq. 12); the paper observes
	// slightly better than predicted, so allow the band [0.27, 0.32].
	got := measureRate(t, "seq", 10000, 10, 202)
	if got < 0.27 || got > 0.32 {
		t.Fatalf("seq one-cycle reduction = %.4f, want within [0.27, 0.32]", got)
	}
}

func TestTheorem1RatePMRand(t *testing.T) {
	// GETPAIR_PMRAND is the analytical proxy: exactly 1/(2√e).
	got := measureRate(t, "pmrand", 10000, 10, 203)
	want := 1 / (2 * math.Sqrt(math.E))
	if math.Abs(got-want) > 0.015 {
		t.Fatalf("pmrand one-cycle reduction = %.4f, want %.4f ± 0.015", got, want)
	}
}

func TestRateOrderingMatchesTheory(t *testing.T) {
	// pm < seq ≈ pmrand < rand, the paper's comparison of §3.3.
	pm := measureRate(t, "pm", 5000, 8, 210)
	seq := measureRate(t, "seq", 5000, 8, 211)
	rnd := measureRate(t, "rand", 5000, 8, 212)
	if !(pm < seq && seq < rnd) {
		t.Fatalf("rate ordering violated: pm=%.4f seq=%.4f rand=%.4f", pm, seq, rnd)
	}
}

func TestRateIndependentOfNetworkSize(t *testing.T) {
	// Figure 3(a)'s key observation: convergence is independent of N.
	small := measureRate(t, "seq", 1000, 10, 220)
	large := measureRate(t, "seq", 30000, 5, 221)
	if math.Abs(small-large) > 0.03 {
		t.Fatalf("seq rate varies with size: n=1000 → %.4f, n=30000 → %.4f", small, large)
	}
}

func TestSeqOnRandomGraphCloseToComplete(t *testing.T) {
	// Figure 3(a): "no observable difference between the random and
	// fully connected topologies" for seq after one cycle.
	rng := xrand.New(230)
	var acc stats.Running
	for run := 0; run < 8; run++ {
		g := mustKRegular(t, 5000, 20, rng)
		kern, err := newAVG(sim.Config{Graph: g, Selector: sim.NewSeq(), RNG: rng}, gaussian(5000, rng))
		if err != nil {
			t.Fatal(err)
		}
		before := stats.Variance(kern.Column(0))
		kern.Cycle()
		acc.Add(stats.Variance(kern.Column(0)) / before)
	}
	if got := acc.Mean(); got < 0.27 || got > 0.33 {
		t.Fatalf("seq on 20-regular = %.4f, want within [0.27, 0.33]", got)
	}
}

func TestPhiCountsPM(t *testing.T) {
	// PM must select every index exactly twice per cycle (φ ≡ 2).
	rng := xrand.New(240)
	g := mustComplete(t, 100)
	kern, err := newAVG(sim.Config{Graph: g, Selector: sim.NewPM(), CountPhi: true, RNG: rng}, gaussian(100, rng))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 5; c++ {
		kern.Cycle()
		for i, phi := range kern.PhiCounts() {
			if phi != 2 {
				t.Fatalf("cycle %d: φ(%d) = %d, want 2", c, i, phi)
			}
		}
	}
}

func TestPhiCountsSeqAtLeastOne(t *testing.T) {
	// Seq: every node initiates once, so φ ≥ 1 everywhere, and the
	// total is exactly 2N.
	rng := xrand.New(241)
	n := 500
	g := mustComplete(t, n)
	kern, err := newAVG(sim.Config{Graph: g, Selector: sim.NewSeq(), CountPhi: true, RNG: rng}, gaussian(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	kern.Cycle()
	total := 0
	for i, phi := range kern.PhiCounts() {
		if phi < 1 {
			t.Fatalf("φ(%d) = %d, want ≥ 1", i, phi)
		}
		total += phi
	}
	if total != 2*n {
		t.Fatalf("Σφ = %d, want %d", total, 2*n)
	}
}

func TestPhiDistributionRandIsPoisson2(t *testing.T) {
	// Rand: φ ~ Poisson(2) (eq. 9). Check mean ≈ 2 and E(2^{-φ}) ≈ 1/e.
	rng := xrand.New(242)
	n := 2000
	g := mustComplete(t, n)
	kern, err := newAVG(sim.Config{Graph: g, Selector: sim.NewRand(), CountPhi: true, RNG: rng}, gaussian(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	var meanAcc, halfAcc stats.Running
	for c := 0; c < 20; c++ {
		kern.Cycle()
		for _, phi := range kern.PhiCounts() {
			meanAcc.Add(float64(phi))
			halfAcc.Add(math.Pow(2, -float64(phi)))
		}
	}
	if m := meanAcc.Mean(); math.Abs(m-2) > 0.05 {
		t.Errorf("E(φ) = %.4f, want ≈ 2", m)
	}
	if h := halfAcc.Mean(); math.Abs(h-1/math.E) > 0.01 {
		t.Errorf("E(2^{-φ}) = %.4f, want ≈ %.4f", h, 1/math.E)
	}
}

func TestPhiDistributionSeqIsOnePlusPoisson1(t *testing.T) {
	// Seq: φ = 1 + Poisson(1) approximately, so E(2^{-φ}) ≈ 1/(2√e).
	rng := xrand.New(243)
	n := 2000
	g := mustComplete(t, n)
	kern, err := newAVG(sim.Config{Graph: g, Selector: sim.NewSeq(), CountPhi: true, RNG: rng}, gaussian(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	var halfAcc stats.Running
	for c := 0; c < 20; c++ {
		kern.Cycle()
		for _, phi := range kern.PhiCounts() {
			halfAcc.Add(math.Pow(2, -float64(phi)))
		}
	}
	want := 1 / (2 * math.Sqrt(math.E))
	if h := halfAcc.Mean(); math.Abs(h-want) > 0.01 {
		t.Errorf("E(2^{-φ}) = %.4f, want ≈ %.4f", h, want)
	}
}

func TestPMMatchingsDisjoint(t *testing.T) {
	// The two matchings of one PM cycle must share no pair.
	rng := xrand.New(244)
	g := mustComplete(t, 50)
	pm := sim.NewPM()
	if err := pm.Bind(g, rng); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		pm.BeginCycle()
		type pair [2]int
		norm := func(i, j int) pair {
			if i > j {
				i, j = j, i
			}
			return pair{i, j}
		}
		first := make(map[pair]bool)
		for s := 0; s < 25; s++ {
			i, j := pm.NextPair()
			first[norm(i, j)] = true
		}
		for s := 0; s < 25; s++ {
			i, j := pm.NextPair()
			if first[norm(i, j)] {
				t.Fatalf("trial %d: pair (%d,%d) in both matchings", trial, i, j)
			}
		}
	}
}

func TestPMRejectsOddAndNonComplete(t *testing.T) {
	rng := xrand.New(245)
	gOdd := mustComplete(t, 7)
	if err := sim.NewPM().Bind(gOdd, rng); !errors.Is(err, sim.ErrOddSize) {
		t.Errorf("odd size: err = %v, want ErrOddSize", err)
	}
	kreg := mustKRegular(t, 20, 4, rng)
	if err := sim.NewPM().Bind(kreg, rng); !errors.Is(err, sim.ErrNeedsCompleteGraph) {
		t.Errorf("k-regular: err = %v, want ErrNeedsCompleteGraph", err)
	}
	if err := sim.NewPMRand().Bind(kreg, rng); !errors.Is(err, sim.ErrNeedsCompleteGraph) {
		t.Errorf("pmrand on k-regular: err = %v, want ErrNeedsCompleteGraph", err)
	}
}

func TestLossSlowsConvergence(t *testing.T) {
	rng := xrand.New(248)
	rate := func(p float64) float64 {
		g := mustComplete(t, 2000)
		var loss sim.LossModel
		if p > 0 {
			loss = sim.ReplyLoss{P: p}
		}
		kern, err := newAVG(sim.Config{Graph: g, Selector: sim.NewSeq(), Loss: loss, RNG: rng}, gaussian(2000, rng))
		if err != nil {
			t.Fatal(err)
		}
		v := kern.Run(10)
		return math.Pow(v[len(v)-1]/v[0], 0.1)
	}
	lossless, lossy := rate(0), rate(0.3)
	if lossy <= lossless {
		t.Fatalf("30%% loss did not slow convergence: %.4f vs %.4f", lossy, lossless)
	}
	// Even heavy loss must not stall convergence entirely.
	if lossy > 0.8 {
		t.Fatalf("30%% loss rate %.4f; protocol should still converge", lossy)
	}
}

func TestLossBreaksMassConservation(t *testing.T) {
	// Reply loss applies the average on one side only, so the sum can
	// drift — the effect E6 quantifies. With p = 0.5 over many steps the
	// drift is detectable with overwhelming probability.
	rng := xrand.New(249)
	g := mustComplete(t, 500)
	values := gaussian(500, rng)
	before := stats.Sum(values)
	kern, err := newAVG(sim.Config{Graph: g, Selector: sim.NewSeq(), Loss: sim.ReplyLoss{P: 0.5}, RNG: rng}, values)
	if err != nil {
		t.Fatal(err)
	}
	kern.Run(5)
	after := stats.Sum(kern.Column(0))
	if math.Abs(after-before) < 1e-9 {
		t.Fatal("sum unchanged under heavy loss; loss model not applied")
	}
}

func TestCyclesToTargetMatchesLn1000(t *testing.T) {
	// §5: with rand the variance drops 99.9 % in ln(1000) ≈ 7 cycles.
	rng := xrand.New(250)
	g := mustComplete(t, 5000)
	kern, err := newAVG(sim.Config{Graph: g, Selector: sim.NewRand(), RNG: rng}, gaussian(5000, rng))
	if err != nil {
		t.Fatal(err)
	}
	initial := stats.Variance(kern.Column(0))
	cycles := 0
	for stats.Variance(kern.Column(0)) > 1e-3*initial {
		kern.Cycle()
		cycles++
		if cycles > 20 {
			break
		}
	}
	if cycles < 5 || cycles > 10 {
		t.Fatalf("99.9%% reduction took %d cycles, want ≈ 7", cycles)
	}
}

func TestTheoreticalRateTable(t *testing.T) {
	cases := []struct {
		name string
		want float64
	}{
		{"pm", 0.25},
		{"rand", 1 / math.E},
		{"seq", 1 / (2 * math.Sqrt(math.E))},
		{"pmrand", 1 / (2 * math.Sqrt(math.E))},
	}
	for _, tc := range cases {
		got, ok := sim.TheoreticalRate(tc.name)
		if !ok {
			t.Errorf("sim.TheoreticalRate(%q) not ok", tc.name)
			continue
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("sim.TheoreticalRate(%q) = %.10f, want %.10f", tc.name, got, tc.want)
		}
	}
	if _, ok := sim.TheoreticalRate("bogus"); ok {
		t.Error("sim.TheoreticalRate accepted unknown selector")
	}
}

func TestMeanPreservedQuick(t *testing.T) {
	// Property: for any small initial vector, lossless averaging keeps
	// the mean (within rounding) for every selector.
	rng := xrand.New(251)
	check := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		if len(raw)%2 == 1 {
			raw = raw[:len(raw)-1]
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		for _, sel := range allSelectors() {
			g, err := topology.NewComplete(len(raw))
			if err != nil {
				return false
			}
			kern, err := newAVG(sim.Config{Graph: g, Selector: sel, RNG: rng}, raw)
			if err != nil {
				return false
			}
			before := stats.Mean(kern.Column(0))
			kern.Run(3)
			if math.Abs(stats.Mean(kern.Column(0))-before) > 1e-9*math.Max(1, math.Abs(before)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAggregationViaEpidemicSpread(t *testing.T) {
	// §1.1 notes AGGREGATE_MAX behaves like push-pull epidemic
	// broadcast. Emulate it on the seq selector's pair stream: after O(log N)
	// cycles every node must know the maximum.
	rng := xrand.New(252)
	n := 1024
	g := mustComplete(t, n)
	values := gaussian(n, rng)
	trueMax := values[0]
	for _, v := range values {
		if v > trueMax {
			trueMax = v
		}
	}
	sel := sim.NewSeq()
	if err := sel.Bind(g, rng); err != nil {
		t.Fatal(err)
	}
	vals := append([]float64(nil), values...)
	for cycle := 0; cycle < 12; cycle++ {
		sel.BeginCycle()
		for s := 0; s < n; s++ {
			i, j := sel.NextPair()
			m := math.Max(vals[i], vals[j])
			vals[i], vals[j] = m, m
		}
	}
	for i, v := range vals {
		if v != trueMax {
			t.Fatalf("node %d has %g, want max %g", i, v, trueMax)
		}
	}
}

func TestSelectorReuseAcrossBinds(t *testing.T) {
	// A selector re-bound to a new graph must fully reset its state.
	rng := xrand.New(779)
	sel := sim.NewPM()
	g1 := mustComplete(t, 20)
	if err := sel.Bind(g1, rng); err != nil {
		t.Fatal(err)
	}
	sel.BeginCycle()
	sel.NextPair()
	g2 := mustComplete(t, 10)
	if err := sel.Bind(g2, rng); err != nil {
		t.Fatal(err)
	}
	sel.BeginCycle()
	for s := 0; s < 10; s++ {
		i, j := sel.NextPair()
		if i >= 10 || j >= 10 || i < 0 || j < 0 {
			t.Fatalf("stale pair (%d, %d) after re-bind to smaller graph", i, j)
		}
	}
}
