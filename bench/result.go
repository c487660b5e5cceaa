package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// sample is one reported metric value. N is the sample count behind a
// timing and Q the quantile actually reported for a tail (timing.tail);
// both are omitted from the driver's result line, which carries value
// and unit only.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q     float64 `json:"q,omitempty"`
}

// check is one correctness check of a workload's outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Checks    []check           `json:"checks"`
	Metrics   map[string]sample `json:"metrics"`
	Budget    *budget           `json:"budget,omitempty"`
}

func newResult(workload string, cfg runConfig) *result {
	return &result{
		Workload: workload,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Traced:   cfg.trace,
		Metrics:  make(map[string]sample),
	}
}

// set records a metric by its contract name; the unit comes from the
// metric tables, so a name the contract does not know is a bug.
func (r *result) set(name string, v float64) { r.setN(name, v, 0, 0) }

func (r *result) setN(name string, v float64, n int, q float64) {
	def, ok := findMetric(name)
	if !ok {
		panic("bench: metric " + name + " is not in the metric tables")
	}
	r.Metrics[name] = sample{Value: v, Unit: def.unit, N: n, Q: q}
}

// setTiming records a latency distribution's median under p50Name and,
// when tailName is set, its tail (setTail). An empty distribution
// records nothing.
func (r *result) setTiming(p50Name, tailName string, t *timing, scale float64) {
	if t.n() == 0 {
		return
	}
	r.setN(p50Name, t.p(0.5)*scale, t.n(), 0.5)
	if tailName != "" {
		r.setTail(tailName, t, scale)
	}
}

// setTail records a distribution's highest supported percentile ≤ p99
// (timing.tail) under a "…_p99" name, with the quantile actually used.
func (r *result) setTail(name string, t *timing, scale float64) {
	if t.n() == 0 {
		return
	}
	q, v := t.tail(0.99)
	r.setN(name, v*scale, t.n(), q)
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// ops adds operations to the attempted/failed tally.
func (r *result) ops(attempted, failed int64) {
	r.Attempted += attempted
	r.Failed += failed
}

// correct reports whether every check passed and every metric is a
// finite number.
func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	for _, s := range r.Metrics {
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return false
		}
	}
	return true
}

// finish derives failed_share once the workload has tallied its
// operations.
func (r *result) finish() {
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.set("failed_share", float64(r.Failed)/float64(r.Attempted))
}

// print writes the human-readable report: every metric by name with its
// unit, then the checks.
func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  %s\n", r.Workload, r.Seed, r.Seconds, mode)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		// End-to-end metrics (no layer prefix) first, then by layer.
		di, dj := strings.Contains(names[i], "."), strings.Contains(names[j], ".")
		if di != dj {
			return !di
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		s := r.Metrics[name]
		extra := ""
		if s.N > 0 {
			extra = fmt.Sprintf("  (n=%d", s.N)
			if s.Q > 0 && s.Q != 0.5 {
				extra += fmt.Sprintf(", p%.4g", s.Q*100)
			}
			extra += ")"
		}
		fmt.Fprintf(w, "  %-40s %14.6g %s%s\n", name, s.Value, s.Unit, extra)
	}
	for _, c := range r.Checks {
		state := "ok  "
		if !c.OK {
			state = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s: %s\n", state, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "  operations attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.correct())
	if r.Budget != nil {
		r.Budget.print(w)
	}
}

// driverLine renders the acceptance driver's result object: exactly the
// keys correct, attempted, failed and metrics, the metrics being every
// end_to_end metric of BENCHMARK.json on an untraced run and every
// per_layer metric on a traced one. A per-layer metric the workload's
// layers never touched reads 0 (an idle layer did no work).
func (r *result) driverLine() ([]byte, error) {
	defs := driverEndToEnd()
	if r.Traced {
		defs = driverPerLayer()
	}
	type driverSample struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]driverSample, len(defs))
	for _, def := range defs {
		s, ok := r.Metrics[def.name]
		if !ok && !r.Traced {
			return nil, fmt.Errorf("workload %s did not report end-to-end metric %s", r.Workload, def.name)
		}
		v := s.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[def.name] = driverSample{Value: v, Unit: def.unit}
	}
	return json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]driverSample `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
}
