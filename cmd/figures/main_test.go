package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestQuickScaleGolden pins every artifact at -scale quick with the
// default seeds: each must print byte-identical TSV on every platform
// and run, whatever executes the sweeps underneath.
func TestQuickScaleGolden(t *testing.T) {
	for _, fig := range []string{"rates", "3a", "3b", "4", "cycles", "loss", "crash", "topology", "viewsize"} {
		t.Run(fig, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(context.Background(), &buf, fig, "quick", 0); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", fig+".tsv")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("-fig %s diverged from %s;\ngot:\n%s", fig, golden, buf.Bytes())
			}
		})
	}
}

// TestRejectsUnknownArguments: a bad scale or figure name is an error,
// not an empty artifact.
func TestRejectsUnknownArguments(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, "3a", "huge", 0); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run(context.Background(), &buf, "5", "quick", 0); err == nil {
		t.Error("unknown figure accepted")
	}
	if buf.Len() != 0 {
		t.Errorf("rejected arguments printed %q", buf.String())
	}
}

// TestPaperScaleParameters pins the publication's Figure 3 parameters
// in the paper-scale spec table, without running it: Figure 3 sweeps
// rand and seq on the complete and 20-regular overlays with 50 runs per
// point (3(a): one cycle, N = 100 … 100 000; 3(b): 30 cycles at
// N = 100 000).
func TestPaperScaleParameters(t *testing.T) {
	var sizes []int
	for _, s := range artifacts["3a"].paper {
		if s.Cycles != 1 || s.Repeats != 50 || s.ViewSize != 20 {
			t.Errorf("fig3a spec: %+v", s)
		}
		if s.Selector == scenario.SelectorRand && s.Topology == scenario.TopologyComplete {
			sizes = append(sizes, s.Size)
		}
	}
	if want := []int{100, 300, 1000, 3000, 10000, 30000, 100000}; !slices.Equal(sizes, want) {
		t.Errorf("fig3a sizes %v, want %v", sizes, want)
	}
	for _, fig := range []string{"3a", "3b"} {
		var pairs []string
		for _, s := range artifacts[fig].paper {
			if pair := pairLabel(s); !slices.Contains(pairs, pair) {
				pairs = append(pairs, pair)
			}
		}
		want := []string{"getPair_rand, complete", "getPair_rand, kregular", "getPair_seq, complete", "getPair_seq, kregular"}
		if !slices.Equal(pairs, want) {
			t.Errorf("fig%s plots %v, want %v", fig, pairs, want)
		}
	}
	for _, s := range artifacts["3b"].paper {
		if s.Size != 100000 || s.Cycles != 30 || s.Repeats != 50 || s.ViewSize != 20 {
			t.Errorf("fig3b spec: %+v", s)
		}
	}
}

// TestFig4PaperScaleParameters pins the publication's Figure 4
// parameters in the paper-scale spec table, without running it: one
// run estimating a size oscillating between 90 000 and 110 000 with 100
// nodes of turnover per cycle, 30-cycle epochs over 1000 cycles.
func TestFig4PaperScaleParameters(t *testing.T) {
	f := artifacts["4"].paper
	if len(f) != 1 || f[0].Churn == nil || f[0].SizeEstimation == nil {
		t.Fatalf("fig4 specs: %+v", f)
	}
	c, e := f[0].Churn, f[0].SizeEstimation
	if c.Model != "oscillating" || c.Min != 90000 || c.Max != 110000 || c.Fluctuation != 100 {
		t.Errorf("fig4 churn: %+v", c)
	}
	if f[0].Cycles != 1000 || e.EpochCycles != 30 || e.Instances != 1 {
		t.Errorf("fig4 horizon %d cycles, estimation %+v", f[0].Cycles, e)
	}
}
