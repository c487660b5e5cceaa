package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
)

// cpuTime is the process's user+system CPU time. Exchange cost is
// reported against this clock, not the wall clock: on a shared box
// wall-clock throughput of one run swings severalfold between windows
// while CPU time per exchange at a fixed offered rate repeats (README,
// "Why CPU-normalised and paced").
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// scrape is one reading of a system's metric registry, keyed by
// "name{labels}" exactly as Registry.AppendJSON renders it.
type scrape map[string]float64

// scrapeSystem reads every series the system exports. The registry is
// the only place several per-layer counts live (batch frames, pool
// misses, TCP bytes), so the benchmark reads it the way an operator's
// collector would — through the exposition, not through package
// internals.
func scrapeSystem(sys *repro.System, buf *[]byte) scrape {
	*buf = sys.Metrics().AppendJSON((*buf)[:0])
	var raw map[string]*float64
	if err := json.NewDecoder(bytes.NewReader(*buf)).Decode(&raw); err != nil {
		return nil
	}
	out := make(scrape, len(raw))
	for k, v := range raw {
		if v != nil {
			out[k] = *v
		}
	}
	return out
}

// each calls fn for every series of one metric family, across its label
// sets and across systems (liveSession.scrape prefixes each key with its
// system's index and a bar).
func (s scrape) each(name string, fn func(v float64)) {
	for k, v := range s {
		if _, after, ok := strings.Cut(k, "|"); ok {
			k = after
		}
		if k == name || strings.HasPrefix(k, name+"{") {
			fn(v)
		}
	}
}

// sum adds a family across its label sets (per-shard counters).
func (s scrape) sum(name string) (t float64) {
	s.each(name, func(v float64) { t += v })
	return t
}

// max is the largest series of a family (per-shard gauges).
func (s scrape) max(name string) (m float64) {
	s.each(name, func(v float64) { m = math.Max(m, v) })
	return m
}

// fingerprint identifies the host a result set was measured on; numbers
// from different fingerprints are not comparable and -compare says so.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return fp
}
