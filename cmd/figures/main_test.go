package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestQuickScaleGolden pins every artifact at -scale quick with the
// default seeds: each must print byte-identical TSV on every platform
// and run, whatever executes the sweeps underneath.
func TestQuickScaleGolden(t *testing.T) {
	for _, fig := range []string{"rates", "3a", "3b", "4", "cycles", "loss", "crash", "topology", "viewsize"} {
		t.Run(fig, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(context.Background(), &buf, fig, "quick", 0, 0); err != nil {
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
	if err := run(context.Background(), &buf, "3a", "huge", 0, 0); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run(context.Background(), &buf, "5", "quick", 0, 0); err == nil {
		t.Error("unknown figure accepted")
	}
	if buf.Len() != 0 {
		t.Errorf("rejected arguments printed %q", buf.String())
	}
}
