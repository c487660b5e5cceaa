package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with the golden file (or rewrites it under
// -update).
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged from %s;\ngot:\n%s", golden, got)
	}
}

// TestSingleRunGolden pins single-run mode end to end: -n 1000 -cycles
// 10 -seed 42 with getPair_seq, lossless and at 10 % reply loss, must
// print a byte-identical trajectory (the lossless one with the §3.3
// reference rate).
func TestSingleRunGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		loss float64
	}{{"seq", 0}, {"loss", 0.1}} {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(context.Background(), &buf, 1000, "seq", "complete", 20, 10, c.loss, 0, 42); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", "single-"+c.name+".golden.txt"), buf.Bytes())
		})
	}
}

// TestSingleRunRejectsBadFlags: an unknown selector and a perfect
// matching on a non-complete overlay are errors, not empty output.
func TestSingleRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, 1000, "bogus", "complete", 20, 10, 0, 0, 42); err == nil {
		t.Error("-selector bogus accepted")
	}
	if err := run(context.Background(), &buf, 1000, "pm", "kregular", 20, 10, 0, 0, 42); err == nil {
		t.Error("-selector pm -topology kregular accepted")
	}
	if buf.Len() != 0 {
		t.Errorf("rejected flags printed %q", buf.String())
	}
}

// TestScenarioModeGoldenCSV pins the end-to-end -scenario path: a JSON
// grid file from testdata runs through the scenario engine and must
// produce byte-identical CSV on every platform and run.
func TestScenarioModeGoldenCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := runScenario(context.Background(), filepath.Join("testdata", "mini-sweep.json"), "csv", "", 0, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "mini-sweep.golden.csv"), buf.Bytes())
	// Sanity: 2 selectors × 2 loss probs × 2 reps × 4 rows (cycle 0-3)
	// plus the header.
	if lines := strings.Count(buf.String(), "\n"); lines != 1+2*2*2*4 {
		t.Fatalf("got %d lines, want %d", lines, 1+2*2*2*4)
	}
}

// TestScenarioAdversaryGoldenCSV pins the adversary axis end to end: a
// behavior × fraction sweep with the robust countermeasures enabled
// must be byte-identical run to run (deterministic adversary placement,
// RNG stream discipline and rejection accounting), with the Corruption
// and Rejected columns populated.
func TestScenarioAdversaryGoldenCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := runScenario(context.Background(), filepath.Join("testdata", "adversary-mini.json"), "csv", "", 0, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "adversary-mini.golden.csv"), buf.Bytes())
	// Sanity: 2 behaviors × 2 fractions × 2 reps × 4 rows (cycle 0-3)
	// plus the header.
	if lines := strings.Count(buf.String(), "\n"); lines != 1+2*2*2*4 {
		t.Fatalf("got %d lines, want %d", lines, 1+2*2*2*4)
	}
}

// TestScenarioModeJSONL smoke-tests the alternate format end to end.
func TestScenarioModeJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := runScenario(context.Background(), filepath.Join("testdata", "mini-sweep.json"), "jsonl", "", 0, &buf); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(buf.String(), "\n")
	if !strings.HasPrefix(first, `{"scenario":"mini-sweep"`) {
		t.Fatalf("unexpected first row: %s", first)
	}
}

// TestScenarioModeRejectsUnknownFormat: flag validation reaches the
// caller as an error, not a panic.
func TestScenarioModeRejectsUnknownFormat(t *testing.T) {
	if err := runScenario(context.Background(), filepath.Join("testdata", "mini-sweep.json"), "xml", "", 0, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown format accepted")
	}
}
