package repro

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// -update regenerates api/metrics.txt from the live registry (the
// metric-name golden, TestMetricsNamesGolden).
var updateMetricsGolden = flag.Bool("update", false, "rewrite api/metrics.txt from the live metric-name set")

// TestWatchDroppedStalledSubscriber is the latest-wins observability
// regression: a subscriber that stops reading accumulates Dropped on
// the snapshots it eventually sees (and on the per-field hub counter),
// while a subscriber that keeps up stays at zero and keeps advancing.
func TestWatchDroppedStalledSubscriber(t *testing.T) {
	const cycle = 5 * time.Millisecond
	sys, err := Open(
		WithSize(8),
		WithCycleLength(cycle),
		WithSeed(31),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stalled, err := sys.Watch(ctx, "avg")
	if err != nil {
		t.Fatal(err)
	}
	active, err := sys.Watch(ctx, "avg")
	if err != nil {
		t.Fatal(err)
	}

	// Drain the active subscriber continuously, recording its last
	// snapshot; never touch the stalled one.
	var mu sync.Mutex
	var last Estimate
	var got int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for est := range active {
			mu.Lock()
			last = est
			got++
			mu.Unlock()
		}
	}()

	// Let the hub tick for a few dozen cycles: the stalled subscriber's
	// slot is replaced (one drop) on all but the first.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := got
		mu.Unlock()
		if n >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("active subscriber saw only %d snapshots in 10s", n)
		}
		time.Sleep(cycle)
	}

	est, ok := <-stalled
	if !ok {
		t.Fatal("stalled subscriber's channel closed early")
	}
	if est.Dropped == 0 {
		t.Errorf("stalled subscriber shows 0 drops after ~20 replaced snapshots")
	}
	if est.Seq == 0 {
		t.Errorf("stalled subscriber's slot was never replaced with a fresh snapshot")
	}
	mu.Lock()
	activeLast, activeGot := last, got
	mu.Unlock()
	if activeLast.Dropped != 0 {
		t.Errorf("active subscriber shows %d drops after %d prompt receives", activeLast.Dropped, activeGot)
	}
	if activeLast.Seq < est.Seq-1 {
		t.Errorf("active subscriber fell behind the stalled one: seq %d vs %d", activeLast.Seq, est.Seq)
	}

	// The per-field hub counter mirrors the per-subscriber counts.
	if v, found := scrapeValue(sys, `repro_watch_dropped_total{field="avg"}`); !found || v < float64(est.Dropped) {
		t.Errorf("repro_watch_dropped_total{field=avg} = %g, found=%v, want ≥ %d", v, found, est.Dropped)
	}
	cancel()
	<-done
}

// scrapeValue renders the system's registry and returns the named
// sample's value (series name including labels, exactly as exposed).
func scrapeValue(sys *System, series string) (float64, bool) {
	text := string(sys.metrics.AppendPrometheus(nil))
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestTelemetryRhoMatchesTheory is the convergence-tracker acceptance
// gate: on a live in-memory system running the constant-wait protocol,
// the observed per-cycle variance reduction factor ρ̂ must match the
// paper's seq-class prediction 1/(2√e) ≈ 0.3033 within the equivalence
// suite's tolerance band [0.27, 0.32].
func TestTelemetryRhoMatchesTheory(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive live convergence measurement")
	}
	const n = 1024
	sys, err := Open(
		WithSize(n),
		WithValues(func(i int) float64 { return float64(i) }),
		WithCycleLength(30*time.Millisecond),
		WithReplyTimeout(time.Second),
		WithSeed(17),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ch := sys.WatchTelemetry(ctx)
	var tel Telemetry
	for tel.RhoCycles < 25 {
		var ok bool
		select {
		case tel, ok = <-ch:
			if !ok {
				t.Fatalf("telemetry stream ended at %.1f informative cycles", tel.RhoCycles)
			}
		case <-ctx.Done():
			t.Fatalf("only %.1f informative cycles after 60s (variance %g)", tel.RhoCycles, tel.Variance)
		}
	}
	if tel.RhoGeo < 0.27 || tel.RhoGeo > 0.32 {
		t.Errorf("observed ρ̂ (geometric mean over %.1f cycles) = %.4f, want within [0.27, 0.32] around 1/(2√e) ≈ 0.3033",
			tel.RhoCycles, tel.RhoGeo)
	}
	wantMean := float64(n-1) / 2
	if math.Abs(tel.TrueMean-wantMean) > 1e-9 {
		t.Errorf("TrueMean = %g, want %g", tel.TrueMean, wantMean)
	}
	// Mass conservation: after 25 cycles of reduction the estimate
	// tracks the true mean to well under one value-spacing unit.
	if !(tel.TrackingError < 1) {
		t.Errorf("TrackingError = %g after %.1f cycles", tel.TrackingError, tel.RhoCycles)
	}
	if tel.Nodes != n || tel.Field != "avg" {
		t.Errorf("telemetry identity: nodes=%d field=%q", tel.Nodes, tel.Field)
	}
	if tel.Stats.Initiated == 0 || math.IsNaN(tel.Completion) || tel.Completion <= 0.5 {
		t.Errorf("completion accounting: %+v completion=%g", tel.Stats, tel.Completion)
	}
	if len(tel.ShardInitiated) != sys.Workers() {
		t.Errorf("ShardInitiated has %d entries for %d workers", len(tel.ShardInitiated), sys.Workers())
	}

	// The scrape-time gauges mirror the tracker.
	if v, found := scrapeValue(sys, "repro_convergence_rho_geo"); !found || math.Abs(v-tel.RhoGeo) > 0.2 {
		t.Errorf("repro_convergence_rho_geo = %g (found=%v), tracker says %g", v, found, tel.RhoGeo)
	}
}

// TestTelemetrySynchronousBaseline: Telemetry before the tracker's
// first tick (hour-long cycles park the hub ticker) falls back to a
// fresh synchronous reduction with NaN convergence factors.
func TestTelemetrySynchronousBaseline(t *testing.T) {
	sys, err := Open(
		WithSize(16),
		WithValues(func(i int) float64 { return float64(i) }),
		WithCycleLength(time.Hour),
		WithSeed(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	tel := sys.Telemetry()
	if tel.Seq != -1 {
		t.Errorf("pre-tick telemetry Seq = %d, want -1", tel.Seq)
	}
	if tel.Nodes != 16 || math.Abs(tel.Mean-7.5) > 1e-9 {
		t.Errorf("baseline reduction: nodes=%d mean=%g", tel.Nodes, tel.Mean)
	}
	if !math.IsNaN(tel.Rho) || !math.IsNaN(tel.RhoGeo) {
		t.Errorf("pre-tick ρ̂ not NaN: %g / %g", tel.Rho, tel.RhoGeo)
	}
	if math.Abs(tel.TrueMean-7.5) > 1e-9 {
		t.Errorf("baseline TrueMean = %g, want 7.5", tel.TrueMean)
	}
}

// TestOpsEndpointEndToEnd drives the WithOps HTTP surface over real
// sockets: /metrics Prometheus exposition, /healthz and /varz JSON,
// pprof, and the trace ring behind WithTraceSampling.
func TestOpsEndpointEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real HTTP sockets")
	}
	sys, err := Open(
		WithSize(64),
		WithValues(func(i int) float64 { return float64(i % 7) }),
		WithCycleLength(5*time.Millisecond),
		WithReplyTimeout(time.Second),
		WithTraceSampling(2),
		WithOps("127.0.0.1:0"),
		WithSeed(12),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	addr := sys.OpsAddr()
	if addr == "" {
		t.Fatal("OpsAddr empty with WithOps configured")
	}

	// Let some exchanges complete so counters and the trace ring fill.
	deadline := time.Now().Add(10 * time.Second)
	for sys.Stats().Replies < 100 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if sys.Stats().Replies == 0 {
		t.Fatal("no exchanges completed")
	}

	get := func(path string) (int, string, http.Header) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header
	}

	code, body, hdr := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE repro_engine_exchanges_initiated_total counter",
		`repro_engine_exchanges_initiated_total{shard="0"}`,
		"repro_convergence_rho",
		"repro_system_uptime_seconds",
		"repro_engine_exchange_latency_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body, _ = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var health map[string]any
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if health["status"] != "ok" || health["nodes"] != float64(64) {
		t.Errorf("/healthz = %v", health)
	}

	code, body, _ = get("/varz")
	if code != http.StatusOK {
		t.Fatalf("/varz status %d", code)
	}
	var varz struct {
		Telemetry map[string]any     `json:"telemetry"`
		Metrics   map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &varz); err != nil {
		t.Fatalf("/varz not JSON: %v\n%s", err, body[:min(len(body), 400)])
	}
	if varz.Telemetry["field"] != "avg" {
		t.Errorf("/varz telemetry = %v", varz.Telemetry)
	}
	if len(varz.Metrics) == 0 {
		t.Error("/varz metrics empty")
	}

	if code, _, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}

	// Trace sampling: the ring holds resolved exchanges with in-range
	// endpoints and the public aliases resolve outcomes.
	recs := sys.Trace(10)
	if len(recs) == 0 {
		t.Fatal("trace ring empty with sampling enabled")
	}
	for _, r := range recs {
		if r.Outcome != TraceCompleted && r.Outcome != TraceNacked && r.Outcome != TraceTimedOut {
			t.Errorf("trace outcome %v", r.Outcome)
		}
	}

	// Close tears the ops listener down.
	sys.Close()
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("ops server survived Close")
	}
}

// TestOpsScrapeLiveLargeSystem is the lock-free-scrape acceptance gate:
// /metrics on a live 10⁵-node heap system returns promptly while the
// workers run — the exposition reads only atomics, never a shard lock.
func TestOpsScrapeLiveLargeSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-node live system")
	}
	sys, err := Open(
		WithSize(100_000),
		WithValues(func(i int) float64 { return float64(i % 100) }),
		WithCycleLength(time.Second),
		WithOps("127.0.0.1:0"),
		WithSeed(13),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Workers are live (1-second cycles keep the load modest); scrape
	// repeatedly and require prompt, complete responses.
	deadline := time.Now().Add(20 * time.Second)
	for sys.Stats().Initiated < 1000 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < 5; i++ {
		start := time.Now()
		resp, err := client.Get("http://" + sys.OpsAddr() + "/metrics")
		if err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("scrape %d: read: %v", i, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("scrape %d took %v on a live 10⁵-node system", i, elapsed)
		}
		if !strings.Contains(string(body), "repro_engine_nodes 100000") {
			t.Fatalf("scrape %d incomplete (%d bytes)", i, len(body))
		}
	}
	if sys.Stats().Initiated == 0 {
		t.Fatal("system was not live during the scrapes")
	}
}

// TestMetricsNamesGolden pins the exposed metric-family name set for
// the canonical shape (in-memory heap runtime, trace sampling on, one
// watched field) in api/metrics.txt — like api/repro.txt for the API
// surface, any PR that changes the exposition renames explicitly.
// Regenerate with: go test -run TestMetricsNamesGolden -update .
func TestMetricsNamesGolden(t *testing.T) {
	sys, err := Open(
		WithSize(16),
		WithGossipMembership(),     // registers the membership families too
		WithCycleLength(time.Hour), // parked: names, not values
		WithTraceSampling(8),
		WithSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := sys.Watch(ctx, "avg"); err != nil { // registers the watch families
		t.Fatal(err)
	}
	got := strings.Join(sys.metrics.Names(), "\n") + "\n"

	const golden = "api/metrics.txt"
	if *updateMetricsGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d families)", golden, strings.Count(got, "\n"))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("metric-name set drifted from %s (regenerate with -update after an intentional change):\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// ExampleWithOps opens a system with the operational HTTP endpoint and
// scrapes its own Prometheus exposition — the WithOps quickstart.
func ExampleWithOps() {
	sys, err := Open(
		WithSize(32),
		WithValues(func(i int) float64 { return float64(i) }),
		WithCycleLength(5*time.Millisecond),
		WithOps("127.0.0.1:0"), // ephemeral port; see sys.OpsAddr()
	)
	if err != nil {
		panic(err)
	}
	defer sys.Close()

	resp, err := http.Get("http://" + sys.OpsAddr() + "/metrics")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		panic(err)
	}
	fmt.Println(strings.Contains(string(body), "repro_engine_nodes 32"))
	// Output: true
}
