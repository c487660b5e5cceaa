// Command aggsim runs anti-entropy averaging simulations through the
// library's front door, repro.Run.
//
// In single-run mode it executes one instance of the paper's algorithm
// AVG (Figure 2) and prints the per-cycle variance trajectory, the
// per-cycle reduction ratio and the comparison to the closed-form rate
// of §3.3:
//
//	aggsim -n 10000 -selector seq -topology complete -cycles 30
//	aggsim -n 100000 -selector rand -topology kregular -view 20 -loss 0.05
//	aggsim -n 1000000 -selector seq -shards -1       # sharded paper-scale run
//
// In scenario mode it executes a declarative JSON scenario file — a
// single spec or a base spec crossed with swept axes (see the scenario
// package and examples/scenarios/) — on the scenario engine's worker
// pool and streams per-cycle reduction rows as CSV or JSON-lines:
//
//	aggsim -scenario examples/scenarios/loss-sweep.json
//	aggsim -scenario sweep.json -format jsonl -out rows.jsonl
//
// Ctrl-C cancels the run's context: mid-flight sweeps stop within one
// cycle per in-flight run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro"
	"repro/scenario"
)

func main() {
	size := flag.Int("n", 10000, "network size")
	selector := flag.String("selector", "seq", "pair selector: pm, rand, seq, pmrand")
	topo := flag.String("topology", "complete", "overlay: complete, kregular, view, ring, smallworld, scalefree")
	view := flag.Int("view", 20, "degree of non-complete overlays")
	cycles := flag.Int("cycles", 30, "AVG cycles to run")
	loss := flag.Float64("loss", 0, "per-message drop probability")
	shards := flag.Int("shards", 0, "sharded executor: 0 = sequential, -1 = one shard per core")
	seed := flag.Uint64("seed", 42, "random seed")
	scenarioPath := flag.String("scenario", "", "run a JSON scenario file (spec or grid) instead of a single simulation")
	format := flag.String("format", "csv", "scenario output format: csv or jsonl")
	outPath := flag.String("out", "", "scenario output file (default stdout)")
	workers := flag.Int("workers", 0, "scenario worker pool size (0 = one per core)")
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var err error
	if *scenarioPath != "" {
		err = runScenario(ctx, *scenarioPath, *format, *outPath, *workers, os.Stdout)
	} else {
		err = run(ctx, os.Stdout, *size, *selector, *topo, *view, *cycles, *loss, *shards, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aggsim:", err)
		os.Exit(1)
	}
}

// runScenario executes a scenario file and streams rows in the chosen
// format to outPath (or stdout when outPath is empty).
func runScenario(ctx context.Context, path, format, outPath string, workers int, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	grid, err := scenario.ParseFile(data)
	if err != nil {
		return err
	}
	out := stdout
	var file *os.File
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		file = f
		out = f
	}
	var w scenario.Writer
	switch format {
	case "csv":
		w = scenario.NewCSVWriter(out)
	case "jsonl":
		w = scenario.NewJSONLWriter(out)
	default:
		if file != nil {
			file.Close()
		}
		return fmt.Errorf("unknown format %q (want csv or jsonl)", format)
	}
	err = scenario.Runner{Workers: workers}.RunGrid(ctx, grid, w)
	if file != nil {
		// A close error after a successful flush still means truncated
		// output (write-back failures surface here on some filesystems);
		// it must not exit 0.
		if cerr := file.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// run executes a single flag-assembled spec through repro.Run and
// writes its trajectory to w. The spec carries scenario.RawSeed(seed),
// so -seed N draws exactly the stream xrand.New(N).
func run(ctx context.Context, w io.Writer, size int, selector, topo string, view, cycles int, loss float64, shards int, seed uint64) error {
	sel, err := scenario.ParseSelector(selector)
	if err != nil {
		return err
	}
	overlay, err := scenario.ParseTopology(topo)
	if err != nil {
		return err
	}
	res, err := repro.Run(ctx, scenario.Spec{
		Size:     size,
		Cycles:   cycles,
		Selector: sel,
		Topology: overlay,
		ViewSize: view,
		LossProb: loss,
		Shards:   shards,
		Seed:     scenario.RawSeed(seed),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# anti-entropy averaging: n=%d selector=%s topology=%s loss=%.2f shards=%d sharded=%v seed=%d\n",
		size, res.Spec.Selector, res.Spec.Topology, loss, shards, res.Sharded, seed)
	fmt.Fprintln(w, "# cycle\tvariance\treduction")
	for i, v := range res.Variances {
		if i == 0 {
			fmt.Fprintf(w, "%d\t%.6g\t-\n", i, v)
			continue
		}
		prev := res.Variances[i-1]
		if prev > 0 {
			fmt.Fprintf(w, "%d\t%.6g\t%.4f\n", i, v, v/prev)
		} else {
			fmt.Fprintf(w, "%d\t%.6g\t-\n", i, v)
		}
	}
	fmt.Fprintf(w, "\nfinal mean estimate : %.6g\n", res.FinalMean)
	fmt.Fprintf(w, "per-cycle reduction : %.4f (geometric mean)\n", res.ReductionRate)
	if theory, ok := repro.TheoreticalRate(res.Spec.Selector.String()); ok && loss == 0 {
		fmt.Fprintf(w, "theory (§3.3)       : %.4f on the complete graph\n", theory)
	}
	return nil
}
