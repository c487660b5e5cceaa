package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runSeconds is the measured window the acceptance driver asks for
// (BENCHMARK.json's run_seconds) and the default of -seconds.
const runSeconds = 20

// driverBoundCap is the largest bound BENCHMARK.json admits.
const driverBoundCap = 0.25

// benchmarkSpec is BENCHMARK.json, the acceptance driver's contract:
// exactly these six keys. It is generated (-benchmark-json) from the
// workload and metric tables, never edited by hand, so a bound has one
// source.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specBounded  `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type specBounded struct {
	specMetric
	Bound float64 `json:"bound"`
}

func newBenchmarkSpec() benchmarkSpec {
	spec := benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, specWorkload{w.name, w.why})
	}
	for _, def := range driverEndToEnd() {
		spec.EndToEnd = append(spec.EndToEnd, specBounded{specMetric{def.name, def.unit, def.better}, def.driverBound})
	}
	for _, def := range driverPerLayer() {
		spec.PerLayer = append(spec.PerLayer, specMetric{def.name, def.unit, def.better})
	}
	return spec
}

// benchmarkJSON renders BENCHMARK.json from the tables.
func benchmarkJSON() ([]byte, error) {
	data, err := json.MarshalIndent(newBenchmarkSpec(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// printBenchmarkJSON is -benchmark-json: the file's contents on stdout,
// for `> ../BENCHMARK.json` after a table changes.
func printBenchmarkJSON(stdout io.Writer) int {
	data, err := benchmarkJSON()
	if err == nil {
		_, err = stdout.Write(data)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}
