package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// series is one metric's values over the runs of a result set.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// Quartiles and spread (IQR as a share of the median) as the
	// acceptance driver computes them; absent below two values.
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

func (s *series) summarize() {
	s.Median = median(s.Values)
	if len(s.Values) >= 2 {
		s.Q1, _, s.Q3 = quartiles(s.Values)
		if sp := spread(s.Values); !math.IsNaN(sp) {
			s.Spread = sp
		}
	}
}

// resultSet is the committed form of a set of runs: baseline.json, the
// output of -calibrate, and (with one value per metric) the result file
// of a plain run. -compare takes two of them.
type resultSet struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seconds     float64     `json:"seconds"`
	Sets        int         `json:"sets"`
	Seeds       []uint64    `json:"seeds"`
	// Bounds holds the regression bounds -calibrate had to widen beyond
	// the metric tables', by workload and metric name, and Widened why.
	// A bound belongs to one metric × workload pair: a noisy pair must
	// not loosen the gate of a steady one that shares its metric.
	Bounds    map[string]map[string]float64 `json:"bounds,omitempty"`
	Widened   map[string]map[string]string  `json:"widened,omitempty"`
	Workloads map[string]map[string]*series `json:"workloads"`
}

// newResultSet is the result set of a single run.
func newResultSet(r *result) *resultSet {
	rs := &resultSet{
		Fingerprint: hostFingerprint(), Seconds: r.Seconds, Sets: 1, Seeds: []uint64{r.Seed},
		Workloads: map[string]map[string]*series{r.Workload: {}},
	}
	for name, s := range r.Metrics {
		if !math.IsNaN(s.Value) && !math.IsInf(s.Value, 0) {
			rs.Workloads[r.Workload][name] = &series{Unit: s.Unit, Values: []float64{s.Value}, Median: s.Value}
		}
	}
	return rs
}

// mergeResultSets concatenates runs' result sets, in order, into one.
func mergeResultSets(sets []*resultSet) *resultSet {
	out := &resultSet{Workloads: make(map[string]map[string]*series)}
	seen := make(map[uint64]bool)
	for _, rs := range sets {
		out.Fingerprint, out.Seconds = rs.Fingerprint, rs.Seconds
		for _, seed := range rs.Seeds {
			if !seen[seed] {
				seen[seed] = true
				out.Seeds = append(out.Seeds, seed)
			}
		}
		for wl, metrics := range rs.Workloads {
			if out.Workloads[wl] == nil {
				out.Workloads[wl] = make(map[string]*series)
			}
			for name, s := range metrics {
				dst := out.Workloads[wl][name]
				if dst == nil {
					dst = &series{Unit: s.Unit}
					out.Workloads[wl][name] = dst
				}
				dst.Values = append(dst.Values, s.Values...)
				out.Sets = max(out.Sets, len(dst.Values))
			}
		}
	}
	for _, metrics := range out.Workloads {
		for _, s := range metrics {
			s.summarize()
		}
	}
	return out
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// boundFor is the regression bound in force for a metric on a workload:
// the table's, unless the calibrated baseline widened that pair's. Only
// the baseline's say counts — a noisy new set must not loosen the gate
// it is judged by.
func boundFor(def metricDef, workload string, baseline *resultSet) float64 {
	if w, ok := baseline.Bounds[workload][def.name]; ok && w > def.bound {
		return w
	}
	return def.bound
}

// noise is a series' run-to-run spread in the bound's own terms: the
// inter-quartile distance, as a share of the median for relative bounds.
func noise(def metricDef, s *series) float64 {
	if len(s.Values) < 2 {
		return 0
	}
	if def.abs {
		return s.Q3 - s.Q1
	}
	return s.Spread
}

// verdict judges one metric × workload pair. A pair whose new median is
// worse than the old by more than the bound in force has regressed.
// Otherwise one whose spread on either side is wider than the table's
// initial bound is unresolved — the runs cannot tell a change of that
// size from noise, which is not the same as unchanged. The spread is
// held against the initial bound, not the widened one: -calibrate
// widens to twice the spread, so against its own widened bound a noisy
// pair could never read unresolved.
func verdict(def metricDef, bound float64, old, cur *series) string {
	worse := cur.Median - old.Median
	if def.better == "higher" {
		worse = -worse
	}
	if !def.abs {
		if old.Median == 0 {
			return "unresolved"
		}
		worse /= math.Abs(old.Median)
	}
	switch {
	case worse > bound:
		return "regressed"
	case noise(def, old) > def.bound || noise(def, cur) > def.bound:
		return "unresolved"
	default:
		return "ok"
	}
}

// compareSets prints one row per end-to-end metric × workload pair and
// returns how many regressed.
func compareSets(old, cur *resultSet, w io.Writer) (regressed int) {
	if old.Fingerprint != cur.Fingerprint {
		fmt.Fprintf(w, "note: host fingerprints differ (%+v vs %+v); the medians are not comparable\n",
			old.Fingerprint, cur.Fingerprint)
	}
	if !slices.Equal(old.Seeds, cur.Seeds) {
		fmt.Fprintf(w, "note: seeds differ (%v vs %v); the two sets ran different inputs, so metrics that are exact per seed (kernel-sweep rho_hat, cycles_to_eps) differ by input, not by code\n",
			old.Seeds, cur.Seeds)
	}
	fmt.Fprintf(w, "%-13s %-24s %14s %14s %9s %8s %8s  %s\n",
		"workload", "metric", "old median", "new median", "change", "bound", "spread", "verdict")
	for _, wl := range workloads {
		o, c := old.Workloads[wl.name], cur.Workloads[wl.name]
		if o == nil || c == nil {
			continue
		}
		for _, def := range endToEnd {
			so, sc := o[def.name], c[def.name]
			if so == nil || sc == nil || !def.definedOn(wl.name) {
				continue
			}
			bound := boundFor(def, wl.name, old)
			v := verdict(def, bound, so, sc)
			if v == "regressed" {
				regressed++
			}
			change := sc.Median - so.Median
			changeStr, boundStr := fmt.Sprintf("%+.4g", change), fmt.Sprintf("%.4g", bound)
			if !def.abs {
				boundStr = fmt.Sprintf("%.1f%%", bound*100)
				if so.Median != 0 {
					changeStr = fmt.Sprintf("%+.1f%%", change/math.Abs(so.Median)*100)
				}
			}
			sp := math.Max(noise(def, so), noise(def, sc))
			spStr := fmt.Sprintf("%.4g", sp)
			if !def.abs {
				spStr = fmt.Sprintf("%.1f%%", sp*100)
			}
			fmt.Fprintf(w, "%-13s %-24s %14.6g %14.6g %9s %8s %8s  %s\n",
				wl.name, def.name, so.Median, sc.Median, changeStr, boundStr, spStr, v)
		}
	}
	return regressed
}

func compareFiles(oldPath, newPath string, w io.Writer) int {
	old, err := readResultSet(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cur, err := readResultSet(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if n := compareSets(old, cur, w); n > 0 {
		fmt.Fprintf(w, "%d metric × workload pairs regressed\n", n)
		return 1
	}
	return 0
}

// calibrate widens the bound of every metric × workload pair whose
// spread over the sets is more than half its bound, to twice that
// spread, and says why; it never narrows one, and a pair's noise never
// touches another pair's bound.
func (rs *resultSet) calibrate(w io.Writer) {
	rs.Bounds, rs.Widened = nil, nil
	for _, wl := range workloads {
		for _, def := range endToEnd {
			s := rs.Workloads[wl.name][def.name]
			if s == nil || !def.definedOn(wl.name) {
				continue
			}
			n := noise(def, s)
			if 2*n <= def.bound {
				continue
			}
			if rs.Bounds == nil {
				rs.Bounds, rs.Widened = make(map[string]map[string]float64), make(map[string]map[string]string)
			}
			if rs.Bounds[wl.name] == nil {
				rs.Bounds[wl.name], rs.Widened[wl.name] = make(map[string]float64), make(map[string]string)
			}
			rs.Bounds[wl.name][def.name] = 2 * n
			why := fmt.Sprintf("inter-quartile spread %.4g over %d sets: twice that exceeds the initial bound %.4g", n, rs.Sets, def.bound)
			if n > def.bound {
				why += "; wider than the initial bound itself, so -compare reports this pair unresolved"
			}
			rs.Widened[wl.name][def.name] = why
			fmt.Fprintf(w, "bound widened: %-13s %-24s %.4g → %.4g (%s)\n", wl.name, def.name, def.bound, 2*n, why)
		}
	}
}

// printSpreads lists every end-to-end metric × workload pair's median
// and spread.
func printSpreads(rs *resultSet, w io.Writer) {
	fmt.Fprintf(w, "%-13s %-24s %14s %9s %9s\n", "workload", "metric", "median", "spread", "bound")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			s := rs.Workloads[wl.name][def.name]
			if s == nil || !def.definedOn(wl.name) {
				continue
			}
			fmt.Fprintf(w, "%-13s %-24s %14.6g %9.4g %9.4g\n", wl.name, def.name, s.Median, noise(def, s), boundFor(def, wl.name, rs))
		}
	}
}
