// Command bench is the repository's benchmark: four named workloads run
// from one single-process load generator sized for a two-core host,
// every metric printed by name with its unit, outputs checked, and — on
// a traced run — per-layer numbers measured from outside, by timing
// calls into each layer's public functions and reading the counters the
// program already exports. See README.md for the metric and workload
// tables and for why the live workloads are paced and CPU-normalised.
//
//	bash bench/run.sh                         all four workloads, untraced, a process each
//	bash bench/run.sh --trace 1               traced run, per-layer numbers and budget tables
//	bash bench/run.sh --workload live-paced --seed 7 --seconds 20 --trace 0
//	bash bench/run.sh -calibrate 5            5 sets on one seed → out/calibrated.json with every spread
//	bash bench/run.sh -benchmark-json         BENCHMARK.json as the workload and metric tables define it
//	bash bench/run.sh -compare old.json new.json
//	bash bench/run.sh -smoke                  ≈2 s per workload at reduced sizes
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"time"
)

// setupRepeats is how many times a live workload sets itself up in one
// run (the kernel sweep, whose set-up runs a whole spec, kernelSetups
// times); setup_s is the median, so one slow Open does not decide it.
const (
	setupRepeats = 9
	kernelSetups = 5
)

// logOut receives progress notes that are not part of the report.
var logOut io.Writer = os.Stderr

// runConfig is one run's inputs: everything a workload generates comes
// from seed, and the program under test only ever sees the generated
// values, specs and timetables.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	scale   scale
	outDir  string
}

// window is the length of one measured window. A traced run measures
// twice — an untraced window for the end-to-end numbers and the tracing
// overhead's base, then a traced one — and splits the run between them
// (the smoke scale's windows are too short to halve).
func (c runConfig) window() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace && !c.scale.smoke {
		d /= 2
	}
	return d
}

// scale fixes the workloads' sizes. The full scale is the contract;
// the smoke scale exists so `go test` can exercise every code path in
// seconds, and its numbers mean nothing.
type scale struct {
	smoke bool

	kernelN      int // complete-overlay specs
	kernelSmallN int // kregular spec and the cache-resident reference
	kernelCycles int

	liveN     int
	liveCycle time.Duration

	tcpN     int // per host
	tcpCycle time.Duration

	serveN     int
	serveCycle time.Duration
	serveSlot  time.Duration // open-loop request spacing
	serveStep  time.Duration // step-write spacing
	stepNodes  int
}

var fullScale = scale{
	kernelN: 1_000_000, kernelSmallN: 100_000, kernelCycles: 30,
	liveN: 100_000, liveCycle: 200 * time.Millisecond,
	tcpN: 4000, tcpCycle: 100 * time.Millisecond,
	serveN: 25_000, serveCycle: 50 * time.Millisecond,
	serveSlot: 12500 * time.Microsecond, serveStep: 1500 * time.Millisecond, stepNodes: 250,
}

var smokeScale = scale{
	smoke:   true,
	kernelN: 20_000, kernelSmallN: 5_000, kernelCycles: 30,
	liveN: 4_000, liveCycle: 50 * time.Millisecond,
	tcpN: 400, tcpCycle: 50 * time.Millisecond,
	serveN: 1_000, serveCycle: 20 * time.Millisecond,
	serveSlot: 5 * time.Millisecond, serveStep: 600 * time.Millisecond, stepNodes: 20,
}

// workloadDef names one workload and why it exists (the same sentence
// BENCHMARK.json carries).
type workloadDef struct {
	name string
	why  string
	run  func(ctx context.Context, cfg runConfig, tr *tracer) (*result, error)
}

var workloads = []workloadDef{
	{wlKernel, "paper-reproduction path: sim+scenario+core+stats+topology do all the work, engine/transport/serve none; deterministic per seed",
		runKernelSweep},
	{wlLive, "in-memory live engine at 10^5 nodes paced at 500 k exch/s, over half of two cores: scheduler, batcher/fabric, MergeExchange and pool work; serve and TCP idle",
		liveWorkload{name: wlLive, open: openLivePaced, convergence: true}.run},
	{wlTCP, "two systems over real loopback sockets: codec, batch framing, TCPEndpoint.SendBatch and gossip digests work; the in-memory fabric is bypassed",
		liveWorkload{name: wlTCP, open: openTCPMesh}.run},
	{wlServe, "writes beside reads on the system/serve layer: SetValue interlock, per-cycle reduce, Query and SSE encode contend for round locks while the engine runs at 500 k exch/s",
		runServeMixed},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload, in this process, and end with the driver's one-line JSON result")
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", runSeconds, "measured window per workload, seconds")
	trace := fs.Int("trace", 0, "1: traced run — per-layer metrics, span file and budget table per workload")
	smoke := fs.Bool("smoke", false, "reduced sizes and ≈2 s windows; numbers are not comparable")
	outDir := fs.String("out", "out", "directory for result and trace files")
	compare := fs.Bool("compare", false, "compare two result-set files: -compare old.json new.json")
	calibrate := fs.Int("calibrate", 0, "run this many sets of every workload, all on -seed, and record each metric's run-to-run spread")
	benchJSON := fs.Bool("benchmark-json", false, "print BENCHMARK.json as the workload and metric tables define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if *benchJSON {
		return printBenchmarkJSON(stdout)
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: fullScale, outDir: *outDir}
	if *smoke {
		cfg.scale = smokeScale
		cfg.seconds = 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *workload == "" || *calibrate > 0 {
		names := []string{*workload}
		if *workload == "" {
			names = names[:0]
			for _, w := range workloads {
				names = append(names, w.name)
			}
		}
		return runSets(ctx, cfg, names, *calibrate, stdout)
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		return 2
	}
	return runWorkload(ctx, cfg, w, stdout)
}

// runWorkload runs one workload in this process: the report, the
// workload's result file (and span file on a traced run), then the
// acceptance driver's result line. Exit status 1 means a correctness
// check failed.
func runWorkload(ctx context.Context, cfg runConfig, w workloadDef, stdout io.Writer) int {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	r, err := w.run(ctx, cfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	r.print(stdout)
	if tr != nil {
		path, err := tr.write(cfg.outDir, r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: write trace: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "  trace written to %s\n", path)
	}
	if err := writeJSON(resultPath(cfg.outDir, w.name), newResultSet(r)); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := r.driverLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !r.correct() {
		return 1
	}
	return 0
}

// resultPath is where a single workload's run leaves its result set.
func resultPath(outDir, workload string) string {
	return filepath.Join(outDir, workload+".json")
}

// runSets runs the named workloads, each in a fresh process exactly as
// the acceptance driver runs it — a workload measured after another in
// one process inherits its heap, and with it its GC cost and its peak
// RSS. sets > 0 is -calibrate: that many sets, every one on the same
// seed — the same inputs, so a spread is run-to-run noise and nothing
// else — merged into <out>/calibrated.json with every metric's spread.
// Otherwise one set is merged into <out>/results.json.
func runSets(ctx context.Context, cfg runConfig, names []string, sets int, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	calibrating := sets > 0
	sets = max(sets, 1)
	ok := true
	var all []*resultSet
	for i := 0; i < sets; i++ {
		if calibrating {
			fmt.Fprintf(stdout, "-- set %d of %d, seed %d\n", i+1, sets, cfg.seed)
		}
		for _, name := range names {
			args := []string{"--workload", name, "--seed", strconv.FormatUint(cfg.seed, 10),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-out", cfg.outDir}
			if cfg.trace {
				args = append(args, "--trace", "1")
			}
			if cfg.scale.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stdout, cmd.Stderr = stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				// Exit status 1 with a result file is a failed check,
				// reported below; anything else is fatal.
				var exit *exec.ExitError
				if !errors.As(err, &exit) || exit.ExitCode() != 1 {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
					return 1
				}
				ok = false
			}
			rs, err := readResultSet(resultPath(cfg.outDir, name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			all = append(all, rs)
		}
	}
	merged := mergeResultSets(all)
	path := filepath.Join(cfg.outDir, "results.json")
	if calibrating {
		merged.calibrate(stdout)
		path = filepath.Join(cfg.outDir, "calibrated.json")
	}
	if err := writeJSON(path, merged); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "result set written to %s\n", path)
	if calibrating {
		printSpreads(merged, stdout)
	}
	if !ok {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
