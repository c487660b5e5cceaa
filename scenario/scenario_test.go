package scenario_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGridExpandCrossProduct: expansion yields the full cross-product
// in row-major order with canonical labels.
func TestGridExpandCrossProduct(t *testing.T) {
	g := scenario.Grid{
		Base: scenario.Spec{Name: "sweep", Size: 64, Cycles: 2, Seed: 3},
		Axes: []scenario.Axis{
			{Param: "selector", Strings: []string{"seq", "rand"}},
			{Param: "size", Ints: []int{64, 128, 256}},
		},
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 {
		t.Fatalf("expanded to %d specs, want 6", len(specs))
	}
	wantLabels := []string{
		"selector=seq,size=64", "selector=seq,size=128", "selector=seq,size=256",
		"selector=rand,size=64", "selector=rand,size=128", "selector=rand,size=256",
	}
	for i, s := range specs {
		if s.Label != wantLabels[i] {
			t.Errorf("cell %d label = %q, want %q", i, s.Label, wantLabels[i])
		}
		if s.Name != "sweep" {
			t.Errorf("cell %d lost the base name: %q", i, s.Name)
		}
	}
	if specs[1].Size != 128 || specs[3].Selector != scenario.SelectorRand {
		t.Errorf("axis values not applied: %+v", specs)
	}
}

// TestGridSeedDerivation: cell seeds are deterministic across
// expansions, distinct across cells, and tied to the base seed.
func TestGridSeedDerivation(t *testing.T) {
	g := scenario.Grid{
		Base: scenario.Spec{Size: 64, Cycles: 1, Seed: 9},
		Axes: []scenario.Axis{{Param: "loss_prob", Floats: []float64{0, 0.1, 0.2}}},
	}
	a, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := range a {
		if a[i].Seed != b[i].Seed {
			t.Fatalf("cell %d seed not deterministic: %d vs %d", i, a[i].Seed, b[i].Seed)
		}
		if seen[a[i].Seed] {
			t.Fatalf("cell %d reuses seed %d", i, a[i].Seed)
		}
		seen[a[i].Seed] = true
	}
	g.Base.Seed = 10
	c, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if c[0].Seed == a[0].Seed {
		t.Fatal("cell seed ignores the base seed")
	}
	// A grid with no axes must leave the base seed untouched.
	plain, err := scenario.Grid{Base: scenario.Spec{Size: 64, Cycles: 1, Seed: 9}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 1 || plain[0].Seed != 9 || plain[0].Label != "" {
		t.Fatalf("axis-free grid mangled the base spec: %+v", plain[0])
	}
}

// TestGridExpandRejectsInvalid: bad axes and specs that validate badly
// fail at expansion, not at run time.
func TestGridExpandRejectsInvalid(t *testing.T) {
	cases := []scenario.Grid{
		{Base: scenario.Spec{Size: 64}, Axes: []scenario.Axis{{Param: "bogus", Ints: []int{1}}}},
		{Base: scenario.Spec{Size: 64}, Axes: []scenario.Axis{{Param: "size", Floats: []float64{1}}}},
		{Base: scenario.Spec{Size: 64}, Axes: []scenario.Axis{{Param: "size"}}},
		{Base: scenario.Spec{Size: 64}, Axes: []scenario.Axis{{Param: "selector", Strings: []string{"nope"}}}},
		{Base: scenario.Spec{Size: 1}},
		{Base: scenario.Spec{Size: 100, CrashFraction: 1.5}},
		{Base: scenario.Spec{Size: 100, TargetRatio: 2}},
		{Base: scenario.Spec{Size: 100, Churn: &scenario.ChurnSpec{Model: "oscillating", Min: 2, Max: 1, Period: 10}}},
	}
	for i, g := range cases {
		if _, err := g.Expand(); err == nil {
			t.Errorf("case %d: invalid grid accepted", i)
		}
	}
}

// TestSpecJSONRoundTrip: a fully populated spec survives JSON
// marshal → ParseFile unchanged.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec := scenario.Spec{
		Name:          "round-trip",
		Size:          512,
		Cycles:        7,
		Ops:           []string{"avg", "min", "max"},
		Selector:      scenario.SelectorRand,
		Topology:      scenario.TopologyKRegular,
		ViewSize:      10,
		Loss:          scenario.LossSymmetric,
		LossProb:      0.25,
		Churn:         &scenario.ChurnSpec{Model: "oscillating", Min: 400, Max: 600, Period: 50, Fluctuation: 5},
		Shards:        0,
		Repeats:       3,
		Seed:          123456789,
		TargetRatio:   1e-6,
		Quantiles:     true,
		CrashFraction: 0,
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scenario.ParseFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Base, spec) {
		t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", got.Base, spec)
	}
	if len(got.Axes) != 0 {
		t.Fatalf("bare spec grew axes: %+v", got.Axes)
	}
}

// TestParseFileGridAndStrictness: grid detection via the "base" key,
// and unknown fields rejected in both forms.
func TestParseFileGridAndStrictness(t *testing.T) {
	grid, err := scenario.ParseFile([]byte(`{"base": {"size": 64}, "axes": [{"param": "size", "ints": [64, 128]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if grid.Base.Size != 64 || len(grid.Axes) != 1 {
		t.Fatalf("grid parsed wrong: %+v", grid)
	}
	if _, err := scenario.ParseFile([]byte(`{"size": 64, "cycels": 3}`)); err == nil {
		t.Fatal("typo field accepted in spec")
	}
	if _, err := scenario.ParseFile([]byte(`{"base": {"size": 64, "shardz": 2}}`)); err == nil {
		t.Fatal("typo field accepted in grid base")
	}
	if _, err := scenario.ParseFile([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestRunnerDeterministicAcrossWorkers: the reorder buffer and the
// per-worker kernel reuse must make results — values and emission
// order — independent of pool size and scheduling.
func TestRunnerDeterministicAcrossWorkers(t *testing.T) {
	specs := []scenario.Spec{
		{Name: "a", Size: 200, Cycles: 3, Repeats: 3, Seed: 1},
		{Name: "b", Size: 100, Cycles: 2, Repeats: 2, Seed: 2, LossProb: 0.2},
		{Name: "c", Size: 150, Cycles: 2, Repeats: 2, Seed: 3, Selector: scenario.SelectorRand},
	}
	run := func(workers int) []scenario.Result {
		var col scenario.Collector
		if err := (scenario.Runner{Workers: workers}).Run(context.Background(), specs, &col); err != nil {
			t.Fatal(err)
		}
		return col.Results()
	}
	want := run(1)
	for _, workers := range []int{2, 4, 7} {
		got := run(workers)
		if !reflect.DeepEqual(stripNaN(got), stripNaN(want)) {
			t.Fatalf("workers=%d: results differ from single-worker run", workers)
		}
	}
}

// stripNaN replaces NaNs with a sentinel so DeepEqual can compare rows.
func stripNaN(rows []scenario.Result) []scenario.Result {
	out := make([]scenario.Result, len(rows))
	for i, r := range rows {
		for _, f := range []*float64{&r.Mean, &r.Variance, &r.Reduction, &r.Min, &r.Max, &r.P10, &r.P50, &r.P90, &r.Corruption, &r.Rejected} {
			if math.IsNaN(*f) {
				*f = -424242
			}
		}
		out[i] = r
	}
	return out
}

// TestRunnerReuseRespectsShardClamp: a worker warmed by a small spec
// (whose shard request was clamped by sim.New) must not hand its
// clamped kernel to a larger spec — the rows must match a cold run
// exactly, whatever was executed before on the same worker.
func TestRunnerReuseRespectsShardClamp(t *testing.T) {
	big := scenario.Spec{Name: "big", Size: 1000, Cycles: 3, Shards: 4, Seed: 21}
	var cold scenario.Collector
	if err := (scenario.Runner{Workers: 1}).Run(context.Background(), []scenario.Spec{big}, &cold); err != nil {
		t.Fatal(err)
	}
	var warm scenario.Collector
	err := (scenario.Runner{Workers: 1}).Run(context.Background(), []scenario.Spec{
		{Name: "small", Size: 6, Cycles: 1, Shards: 4, Seed: 20}, // clamped to 3 shards
		big,
	}, &warm)
	if err != nil {
		t.Fatal(err)
	}
	warmBig := warm.Results()[len(warm.Results())-4:]
	for i, r := range cold.Results() {
		w := warmBig[i]
		if r.Variance != w.Variance || r.Mean != w.Mean {
			t.Fatalf("cycle %d: warm-worker run diverged from cold run (%g vs %g)", r.Cycle, w.Variance, r.Variance)
		}
	}
}

// TestRunnerRowShape: cycle numbering, initial row, reduction NaN at
// cycle 0, quantiles present when requested.
func TestRunnerRowShape(t *testing.T) {
	var col scenario.Collector
	err := scenario.Run(context.Background(), []scenario.Spec{{Size: 300, Cycles: 4, Quantiles: true, Seed: 5}}, &col)
	if err != nil {
		t.Fatal(err)
	}
	rows := col.Results()
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5 (cycle 0..4)", len(rows))
	}
	for i, r := range rows {
		if r.Cycle != i {
			t.Errorf("row %d cycle = %d", i, r.Cycle)
		}
		if r.Size != 300 {
			t.Errorf("row %d size = %d", i, r.Size)
		}
		if math.IsNaN(r.P50) {
			t.Errorf("row %d missing quantiles", i)
		}
		if i == 0 && !math.IsNaN(r.Reduction) {
			t.Error("cycle 0 has a reduction")
		}
		if i > 0 && (r.Reduction <= 0 || r.Reduction >= 1) {
			t.Errorf("cycle %d reduction %g outside (0,1)", i, r.Reduction)
		}
		if i > 0 && r.Variance >= rows[i-1].Variance {
			t.Errorf("variance not decreasing at cycle %d", i)
		}
		if r.P10 > r.P50 || r.P50 > r.P90 {
			t.Errorf("row %d quantiles out of order: %g %g %g", i, r.P10, r.P50, r.P90)
		}
	}
}

// TestRunnerTargetRatioStopsEarly: the early-stop target truncates the
// row stream once the variance ratio is reached.
func TestRunnerTargetRatioStopsEarly(t *testing.T) {
	var col scenario.Collector
	err := scenario.Run(context.Background(), []scenario.Spec{{Size: 500, Cycles: 100, TargetRatio: 1e-3, Seed: 6}}, &col)
	if err != nil {
		t.Fatal(err)
	}
	rows := col.Results()
	last := rows[len(rows)-1]
	if last.Cycle >= 100 {
		t.Fatalf("no early stop: ran all %d cycles", last.Cycle)
	}
	if last.Variance > 1e-3*rows[0].Variance {
		t.Fatalf("stopped before reaching target: %g vs %g", last.Variance, rows[0].Variance)
	}
	if prev := rows[len(rows)-2]; prev.Variance <= 1e-3*rows[0].Variance {
		t.Fatal("stopped one cycle late")
	}
}

// TestRunnerChurnTracksModel: a churned scenario keeps the population
// on the oscillating model's target and reports per-cycle sizes.
func TestRunnerChurnTracksModel(t *testing.T) {
	var col scenario.Collector
	err := scenario.Run(context.Background(), []scenario.Spec{{
		Size:   500,
		Cycles: 40,
		Churn:  &scenario.ChurnSpec{Model: "oscillating", Min: 400, Max: 600, Period: 40, Fluctuation: 5},
		Seed:   7,
	}}, &col)
	if err != nil {
		t.Fatal(err)
	}
	rows := col.Results()
	if rows[0].Size != 500 {
		t.Fatalf("initial size %d", rows[0].Size)
	}
	moved := false
	for _, r := range rows {
		if r.Size < 395 || r.Size > 605 {
			t.Fatalf("cycle %d: size %d escaped the band", r.Cycle, r.Size)
		}
		if r.Size != 500 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("churn never changed the population")
	}
}

// TestRunnerCrashEmitsPreCrashRow: crash specs carry the cycle -1
// snapshot, and survivors converge to the surviving mean.
func TestRunnerCrashEmitsPreCrashRow(t *testing.T) {
	var col scenario.Collector
	err := scenario.Run(context.Background(), []scenario.Spec{{Size: 1000, Cycles: 10, CrashFraction: 0.3, Seed: 8}}, &col)
	if err != nil {
		t.Fatal(err)
	}
	rows := col.Results()
	if rows[0].Cycle != -1 || rows[0].Size != 1000 {
		t.Fatalf("pre-crash row wrong: %+v", rows[0])
	}
	if rows[1].Cycle != 0 || rows[1].Size != 700 {
		t.Fatalf("post-crash row wrong: %+v", rows[1])
	}
	last := rows[len(rows)-1]
	if last.Variance > 1e-4*rows[1].Variance {
		t.Fatal("survivors failed to converge")
	}
}

// TestRunnerWaitMode: event-driven execution emits one row per Δt and
// converges.
func TestRunnerWaitMode(t *testing.T) {
	for _, wait := range []scenario.Wait{scenario.WaitConstant, scenario.WaitExponential} {
		var col scenario.Collector
		err := scenario.Run(context.Background(), []scenario.Spec{{Size: 1000, Cycles: 8, Wait: wait, Seed: 9}}, &col)
		if err != nil {
			t.Fatal(err)
		}
		rows := col.Results()
		if len(rows) != 9 {
			t.Fatalf("%s: got %d rows, want 9", wait, len(rows))
		}
		if last := rows[len(rows)-1]; last.Variance >= rows[0].Variance*0.01 {
			t.Fatalf("%s: no convergence: %g → %g", wait, rows[0].Variance, last.Variance)
		}
	}
}

// TestRunnerShardedMatchesSequentialStatistically: a sharded spec
// reaches the same convergence rate as the sequential one.
func TestRunnerShardedMatchesSequentialStatistically(t *testing.T) {
	rate := func(shards int) float64 {
		var col scenario.Collector
		err := scenario.Run(context.Background(), []scenario.Spec{{Size: 10000, Cycles: 8, Shards: shards, Repeats: 3, Seed: 10}}, &col)
		if err != nil {
			t.Fatal(err)
		}
		acc, n := 0.0, 0
		var first float64
		for _, r := range col.Results() {
			switch r.Cycle {
			case 0:
				first = r.Variance
			case 8:
				acc += math.Pow(r.Variance/first, 1.0/8)
				n++
			}
		}
		return acc / float64(n)
	}
	seq, sharded := rate(0), rate(4)
	if math.Abs(seq-sharded) > 0.02 {
		t.Fatalf("sharded rate %.4f strayed from sequential %.4f", sharded, seq)
	}
}

// TestRunnerShardedPMBitIdentical: the pm selector's sharded runs are
// bit-identical to sequential ones at the scenario level too.
func TestRunnerShardedPMBitIdentical(t *testing.T) {
	run := func(shards int) []scenario.Result {
		var col scenario.Collector
		err := scenario.Run(context.Background(), []scenario.Spec{{Size: 2000, Cycles: 6, Selector: scenario.SelectorPM, Shards: shards, Seed: 11}}, &col)
		if err != nil {
			t.Fatal(err)
		}
		return col.Results()
	}
	seq, sharded := run(0), run(4)
	for i := range seq {
		if seq[i].Variance != sharded[i].Variance || seq[i].Mean != sharded[i].Mean {
			t.Fatalf("cycle %d: sharded pm diverged from sequential", i)
		}
	}
}

// TestRunnerErrorPropagates: a run-time failure (pm pairing on an odd
// population) surfaces with the spec's identity attached.
func TestRunnerErrorPropagates(t *testing.T) {
	err := scenario.Run(context.Background(), []scenario.Spec{
		{Name: "ok", Size: 100, Cycles: 1, Seed: 1},
		{Name: "bad", Size: 101, Cycles: 1, Selector: scenario.SelectorPM, Seed: 2},
	}, &scenario.Collector{})
	if err == nil {
		t.Fatal("odd-size pm spec did not fail")
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Fatalf("error does not identify the failing spec: %v", err)
	}
}

// TestRunnerSizeEstimation: the §4 mode emits one row per epoch with
// estimates tracking the actual size.
func TestRunnerSizeEstimation(t *testing.T) {
	var col scenario.Collector
	err := scenario.Run(context.Background(), []scenario.Spec{{
		Size:           1000,
		Cycles:         150,
		Churn:          &scenario.ChurnSpec{Model: "oscillating", Min: 900, Max: 1100, Period: 100, Fluctuation: 10},
		SizeEstimation: &scenario.SizeEstimationSpec{EpochCycles: 30},
		Seed:           3,
	}}, &col)
	if err != nil {
		t.Fatal(err)
	}
	rows := col.Results()
	if len(rows) != 5 {
		t.Fatalf("got %d epochs, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Cycle%30 != 0 {
			t.Errorf("epoch-end cycle %d not on epoch boundary", r.Cycle)
		}
		relErr := math.Abs(r.Mean-float64(r.Size)) / float64(r.Size)
		if relErr > 0.25 {
			t.Errorf("cycle %d: estimate %.0f vs size %d (%.0f%% off)", r.Cycle, r.Mean, r.Size, 100*relErr)
		}
	}
}

// TestGoldenWriters pins the CSV and JSONL wire formats with golden
// files: a small deterministic grid must serialize byte-identically
// on every platform.
func TestGoldenWriters(t *testing.T) {
	grid := scenario.Grid{
		Base: scenario.Spec{Name: "golden", Size: 64, Cycles: 2, Repeats: 2, Seed: 42, Quantiles: true},
		Axes: []scenario.Axis{
			{Param: "loss_prob", Floats: []float64{0, 0.2}},
		},
	}
	for _, tc := range []struct {
		name   string
		golden string
		writer func(*bytes.Buffer) scenario.Writer
	}{
		{"csv", "golden.csv", func(b *bytes.Buffer) scenario.Writer { return scenario.NewCSVWriter(b) }},
		{"jsonl", "golden.jsonl", func(b *bytes.Buffer) scenario.Writer { return scenario.NewJSONLWriter(b) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := scenario.RunGrid(context.Background(), grid, tc.writer(&buf)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s output diverged from golden file;\ngot:\n%s\nwant:\n%s", tc.name, buf.Bytes(), want)
			}
		})
	}
}
