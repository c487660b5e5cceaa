package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPercentilesAndSampleCounts(t *testing.T) {
	var tm timing
	for i := 1; i <= 101; i++ {
		tm.add(float64(i))
	}
	if got := tm.p(0.5); got != 51 {
		t.Errorf("p50 of 1..101 = %v, want 51", got)
	}
	if got := tm.p(0.99); !near(got, 100, 1e-9) {
		t.Errorf("p99 of 1..101 = %v, want 100", got)
	}
	// 101 samples leave ten beyond p90.1, not beyond p99.
	if q, _ := tm.tail(0.99); !near(q, 1-10.0/101, 1e-12) {
		t.Errorf("tail quantile with 101 samples = %v, want %v", q, 1-10.0/101)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {20, 0.5}, {40, 0.75}, {813, 1 - 10.0/813}, {1000, 0.99}, {100000, 0.99}} {
		if got := tailQuantile(c.n, 0.99); !near(got, c.want, 1e-12) {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if !math.IsNaN((&timing{}).p(0.5)) {
		t.Error("empty timing must report NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the acceptance driver's estimator.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, 1, 1e-12) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestRhoHatAndCyclesToEpsOnGeometricSeries(t *testing.T) {
	const rho = 0.3
	// Sampled off the cycle grid, as the live trajectory is.
	var tr []convSample
	for c := 0.25; c < 40; c += 0.7 {
		tr = append(tr, convSample{cycles: c, variance: 2500 * math.Pow(rho, c)})
	}
	if got := rhoHat(tr, 25); !near(got, rho, 1e-9) {
		t.Errorf("rhoHat = %v, want %v", got, rho)
	}
	want := math.Log(1e-6) / math.Log(rho)
	if got := cyclesToEps(tr, 1e-6); !near(got, want, 1e-9) {
		t.Errorf("cyclesToEps = %v, want %v", got, want)
	}
	// A trajectory that ends early closes the span at its last sample.
	if got := rhoHat(tr[:10], 25); !near(got, rho, 1e-9) {
		t.Errorf("rhoHat on a short trajectory = %v, want %v", got, rho)
	}
	if got := cyclesToEps(tr[:10], 1e-6); !math.IsNaN(got) {
		t.Errorf("cyclesToEps must be NaN when ε is never reached, got %v", got)
	}
	// A series that hits exactly zero still brackets the crossing.
	zero := []convSample{{0, 1}, {1, 0.1}, {2, 0}}
	if got := cyclesToEps(zero, 1e-6); !(got > 1 && got <= 2) {
		t.Errorf("cyclesToEps through a zero variance = %v, want in (1, 2]", got)
	}
}

func TestLedger(t *testing.T) {
	led := newLedger(rand.New(rand.NewPCG(1, 2)), 1000, valueSpan)
	exact := func() float64 {
		var s float64
		for _, v := range led.vals {
			s += v
		}
		return s / float64(len(led.vals))
	}
	if !near(led.mean(), exact(), 1e-9) {
		t.Fatalf("initial mean %v, recomputed %v", led.mean(), exact())
	}
	before := led.mean()
	o := &op{nodes: []int{3, 3, 7}, values: []float64{10, 20, 30}}
	shift := (20 - led.vals[3] + 30 - led.vals[7]) / 1000
	led.apply(o)
	if led.vals[3] != 20 || led.vals[7] != 30 {
		t.Errorf("apply must write in order: node 3 = %v, node 7 = %v", led.vals[3], led.vals[7])
	}
	if !near(led.mean(), before+shift, 1e-9) || !near(led.mean(), exact(), 1e-9) {
		t.Errorf("mean after apply %v, want %v (recomputed %v)", led.mean(), before+shift, exact())
	}
	c := led.clone()
	c.set(0, -1)
	if led.vals[0] == -1 {
		t.Error("clone shares storage with its source")
	}
}

func TestTimetableIsAFunctionOfTheSeed(t *testing.T) {
	build := func(seed uint64) ([]op, *ledger) {
		led := newLedger(rand.New(rand.NewPCG(seed, 9)), fullScale.serveN, valueSpan)
		return buildTimetable(seed, fullScale, 20*time.Second, led), led
	}
	a, ledA := build(7)
	b, _ := build(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different timetables")
	}
	c, _ := build(8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same timetable")
	}

	counts := map[opKind]int{}
	var prev time.Duration
	replay := newLedger(rand.New(rand.NewPCG(7, 9)), fullScale.serveN, valueSpan)
	for i := range a {
		o := &a[i]
		counts[o.kind]++
		if o.due < prev || o.due >= 20*time.Second {
			t.Fatalf("op %d due %v out of order or window", i, o.due)
		}
		prev = o.due
		switch o.kind {
		case opTrickle:
			for j, node := range o.nodes {
				if d := math.Abs(o.values[j] - replay.vals[node]); !near(d, trickleDelta, 1e-9) {
					t.Fatalf("trickle %d rewrites node %d by %v, want ±%v", i, node, d, trickleDelta)
				}
			}
		case opStep:
			if len(o.nodes) != fullScale.stepNodes || math.Abs(o.deltaMean) < minStepShift {
				t.Fatalf("step %d: %d nodes, shift %v", i, len(o.nodes), o.deltaMean)
			}
		}
		if o.kind != opQuery {
			replay.apply(o)
			if !near(o.meanAfter, replay.mean(), 1e-9) {
				t.Fatalf("op %d meanAfter %v, replayed ledger %v", i, o.meanAfter, replay.mean())
			}
			var body struct {
				Field  string
				Values []struct {
					Node  int
					Value float64
				}
			}
			if err := json.Unmarshal(o.body, &body); err != nil || body.Field != "avg" || len(body.Values) != len(o.nodes) {
				t.Fatalf("op %d body %q: %v", i, o.body, err)
			}
		}
	}
	if !near(replay.mean(), ledA.mean(), 1e-9) {
		t.Errorf("generation left the ledger at %v, replay at %v", ledA.mean(), replay.mean())
	}
	if counts[opQuery] != 800 || counts[opTrickle] != 800 || counts[opStep] != 12 {
		t.Errorf("20 s timetable has %v, want 800 queries, 800 trickles, 12 steps", counts)
	}
	// The last step leaves a full step period to settle.
	for i := len(a) - 1; i >= 0; i-- {
		if a[i].kind == opStep {
			if a[i].due > 20*time.Second-fullScale.serveStep {
				t.Errorf("last step due %v leaves less than %v to settle", a[i].due, fullScale.serveStep)
			}
			break
		}
	}
}

// TestTricklePhasesCoverTheCycle guards the reason for the golden-ratio
// offsets: whatever the seed, the trickle writes' due times must be
// spread evenly over the server's 50 ms tick period.
func TestTricklePhasesCoverTheCycle(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		led := newLedger(rand.New(rand.NewPCG(seed, 9)), 1000, valueSpan)
		sc := fullScale
		sc.serveN = 1000
		bins := make([]int, 10)
		n := 0
		for _, o := range buildTimetable(seed, sc, 20*time.Second, led) {
			if o.kind == opTrickle {
				bins[int(o.due%sc.serveCycle)*len(bins)/int(sc.serveCycle)]++
				n++
			}
		}
		for b, c := range bins {
			if share := float64(c) / float64(n); share < 0.08 || share > 0.12 {
				t.Errorf("seed %d: phase bin %d holds %.3f of the trickles, want ≈ 0.1", seed, b, share)
			}
		}
	}
}

func TestPacerCountsLatenessFromDueTime(t *testing.T) {
	p := pacer{start: time.Now().Add(-50 * time.Millisecond)}
	due := p.wait(&op{due: 10 * time.Millisecond}) // 40 ms overdue
	if !due.Equal(p.start.Add(10 * time.Millisecond)) {
		t.Errorf("wait returned %v, want the due instant %v", due, p.start.Add(10*time.Millisecond))
	}
	if late := p.late.samples[0]; late < 0.039 || late > 0.5 {
		t.Errorf("lateness %v s, want ≈ 0.04", late)
	}
	begun := time.Now()
	due = p.wait(&op{due: 70 * time.Millisecond}) // 20 ms ahead
	if time.Since(begun) < 15*time.Millisecond {
		t.Error("wait returned before the operation was due")
	}
	if late := p.late.samples[1]; late > 0.015 {
		t.Errorf("an on-time request recorded %v s lateness", late)
	}
	if time.Since(due) < 0 {
		t.Error("latency measured from the due instant would be negative")
	}
}

func TestReadSSE(t *testing.T) {
	stream := ": comment\n" +
		"data: {\"field\":\"avg\",\"seq\":4,\"time_unix_ms\":1700000000123,\"nodes\":10,\"mean\":2.5,\"variance\":null,\"min\":1,\"max\":4,\"dropped\":2}\n\n" +
		"data:{\"seq\":5,\"time_unix_ms\":1700000000173,\"mean\":3}\r\n\r\n" +
		"event: end\ndata: {}\n\n"
	var got []sseEvent
	err := readSSE(strings.NewReader(stream), func(ev sseEvent) { got = append(got, ev) })
	if !errors.Is(err, errStreamEnded) {
		t.Errorf("clean end reported %v, want errStreamEnded", err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d events, want 2", len(got))
	}
	e := got[0]
	if e.Seq != 4 || e.TimeUnixMs != 1700000000123 || e.Nodes != 10 || e.Mean != 2.5 || e.Min != 1 || e.Max != 4 || e.Dropped != 2 || e.Variance != 0 {
		t.Errorf("first event parsed as %+v", e)
	}
	if e.bytes == 0 || e.recv.IsZero() {
		t.Errorf("event not stamped: bytes=%d recv=%v", e.bytes, e.recv)
	}
	if got[1].Seq != 5 || got[1].Mean != 3 {
		t.Errorf("second event parsed as %+v", got[1])
	}
	// A connection that breaks off mid-stream is not a clean end.
	err = readSSE(strings.NewReader("data: {\"seq\":1}\n\ndata: {\"se"), func(sseEvent) {})
	if !errors.Is(err, io.EOF) {
		t.Errorf("broken stream reported %v, want io.EOF", err)
	}
	if err := readSSE(strings.NewReader("data: not json\n\n"), func(sseEvent) {}); err == nil {
		t.Error("malformed event accepted")
	}
}

// TestAnalyzeServe drives the write-to-visible and settle rules with a
// hand-built window: 50 ms ticks, one trickle, one step that becomes
// visible one tick late (the first tick after its ack still carries the
// old mean) and settles three ticks after that.
func TestAnalyzeServe(t *testing.T) {
	t0 := time.UnixMilli(1_700_000_000_000)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ops := []op{
		{kind: opQuery},
		{kind: opTrickle, meanAfter: 500},
		{kind: opStep, meanAfter: 501, deltaMean: 1},
		{kind: opQuery},
	}
	results := []opResult{
		{due: at(5), done: at(6), status: 200},
		{due: at(10), done: at(11), status: 200},
		{due: at(60), done: at(62), status: 200},
		{due: at(70), done: at(71), status: 500},
	}
	ev := func(ms int, mean, spread float64) sseEvent {
		return sseEvent{TimeUnixMs: at(ms).UnixMilli(), Mean: mean, Min: mean - spread/2, Max: mean + spread/2,
			recv: at(ms + 1), bytes: 120}
	}
	events := []sseEvent{
		ev(0, 500, 0.001),
		ev(50, 500, 0.001),  // makes the trickle visible
		ev(100, 500.4, 900), // after the step's ack, but the mean is not there yet
		ev(150, 501, 400),   // step visible
		ev(200, 501, 3),
		ev(250, 501, 0.02),
		ev(300, 501, 0.009), // settled: ≤ 1 % of the shift
	}
	a := analyzeServe(ops, results, events, 50*time.Millisecond)
	if a.httpFailed != 1 || a.query.n() != 1 || a.ack.n() != 2 || a.steps != 1 {
		t.Fatalf("tallies: failed=%d queries=%d acks=%d steps=%d", a.httpFailed, a.query.n(), a.ack.n(), a.steps)
	}
	if a.neverVisible != 0 || a.neverSettled != 0 {
		t.Fatalf("step reported never visible/settled: %d/%d", a.neverVisible, a.neverSettled)
	}
	// Latencies run from the due time to the event's receipt.
	if v := a.visible.sorted(); len(v) != 2 || !near(v[0], 0.041, 1e-9) || !near(v[1], 0.091, 1e-9) {
		t.Errorf("visible latencies %v, want [0.041 0.091]", v)
	}
	if s := a.settle.sorted(); len(s) != 1 || !near(s[0], 0.241, 1e-9) {
		t.Errorf("settle latency %v, want [0.241]", s)
	}
	if a.cause[1] != 1 || a.cause[3] != 2 {
		t.Errorf("cause map %v, want event 1 ← op 1 and event 3 ← op 2", a.cause)
	}
	if !near(a.eventBytes, 120, 1e-9) || a.staleness.n() != len(events) || !near(a.staleness.p(0.5), 0.001, 1e-9) {
		t.Errorf("event bytes %v, staleness n=%d p50=%v", a.eventBytes, a.staleness.n(), a.staleness.p(0.5))
	}
	if a.jitter.n() != len(events)-1 || a.jitter.p(1) > 1e-9 {
		t.Errorf("tick jitter on an exact 50 ms grid: n=%d max=%v", a.jitter.n(), a.jitter.p(1))
	}

	// A second step acknowledged before the first has settled cuts the
	// first one's search short.
	ops = append(ops, op{kind: opStep, meanAfter: 480, deltaMean: -21})
	results = append(results, opResult{due: at(210), done: at(212), status: 200})
	a = analyzeServe(ops, results, events, 50*time.Millisecond)
	if a.steps != 2 || a.neverSettled != 2 || a.neverVisible != 1 {
		t.Errorf("overlapping steps: steps=%d neverVisible=%d neverSettled=%d, want 2/1/2", a.steps, a.neverVisible, a.neverSettled)
	}
}

func TestScrapeFamilies(t *testing.T) {
	s := scrape{
		`0|repro_engine_rounds_total{shard="0"}`: 3,
		`0|repro_engine_rounds_total{shard="1"}`: 4,
		`1|repro_engine_rounds_total{shard="0"}`: 5,
		`0|repro_engine_rounds_stolen_total`:     9,
		`repro_watch_reduces_total`:              2,
	}
	if got := s.sum("repro_engine_rounds_total"); got != 12 {
		t.Errorf("sum across shards and systems = %v, want 12", got)
	}
	if got := s.max("repro_engine_rounds_total"); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	if got := s.sum("repro_watch_reduces_total"); got != 2 {
		t.Errorf("unprefixed, unlabelled series = %v, want 2", got)
	}
}

func writeFixture(t *testing.T, dir, name string, rs *resultSet) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := writeJSON(path, rs); err != nil {
		t.Fatal(err)
	}
	return path
}

func fixtureSet(values map[string]map[string][]float64) *resultSet {
	rs := &resultSet{Fingerprint: fingerprint{NProc: 2, CPUModel: "fixture", GoVersion: "go", GOMAXPROCS: 2},
		Sets: 5, Workloads: make(map[string]map[string]*series)}
	for wl, metrics := range values {
		rs.Workloads[wl] = make(map[string]*series)
		for name, vs := range metrics {
			def, _ := findMetric(name)
			s := &series{Unit: def.unit, Values: vs}
			s.summarize()
			rs.Workloads[wl][name] = s
		}
	}
	return rs
}

// verdictsOf reads -compare's table back: "workload/metric" → verdict.
func verdictsOf(table string) map[string]string {
	verdicts := map[string]string{}
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) < 8 {
			continue
		}
		if _, ok := findWorkload(f[0]); ok {
			verdicts[f[0]+"/"+f[1]] = f[len(f)-1]
		}
	}
	return verdicts
}

func TestCompareFixtures(t *testing.T) {
	dir := t.TempDir()
	old := fixtureSet(map[string]map[string][]float64{
		wlLive: {
			"cpu_ns_per_exchange": {2000, 2010, 2020, 2030, 2040},
			"completion":          {0.999, 0.999, 0.999, 0.999, 0.999},
			"rho_hat":             {0.30, 0.30, 0.30, 0.30, 0.30},
			"peak_rss_mb":         {100, 101, 102, 103, 104},
		},
		wlServe: {
			"write_visible_ms_p50": {27, 27.1, 27.2, 27.3, 27.4},
			"query_ms_p50":         {1.0, 1.0, 1.0, 1.0, 1.0},
		},
	})
	cur := fixtureSet(map[string]map[string][]float64{
		wlLive: {
			"cpu_ns_per_exchange": {2500, 2510, 2520, 2530, 2540},   // +24.8 %: regressed
			"completion":          {0.99, 0.99, 0.99, 0.99, 0.99},   // −0.009 absolute: regressed
			"rho_hat":             {0.29, 0.295, 0.30, 0.305, 0.31}, // unchanged median, spread 6.7 % > 5 %
			"peak_rss_mb":         {90, 91, 92, 93, 94},             // better
		},
		wlServe: {
			"write_visible_ms_p50": {27.5, 27.6, 27.7, 27.8, 27.9}, // +1.8 %: ok
			"query_ms_p50":         {0.5, 0.9, 1.0, 1.6, 2.5},      // wide spread: unresolved
		},
	})
	var out bytes.Buffer
	code := compareFiles(writeFixture(t, dir, "old.json", old), writeFixture(t, dir, "new.json", cur), &out)
	if code != 1 {
		t.Errorf("exit code %d with regressions present, want 1", code)
	}
	verdicts := verdictsOf(out.String())
	want := map[string]string{
		wlLive + "/cpu_ns_per_exchange":   "regressed",
		wlLive + "/completion":            "regressed",
		wlLive + "/rho_hat":               "unresolved",
		wlLive + "/peak_rss_mb":           "ok",
		wlServe + "/write_visible_ms_p50": "ok",
		wlServe + "/query_ms_p50":         "unresolved",
	}
	if !reflect.DeepEqual(verdicts, want) {
		t.Errorf("verdicts %v\nwant %v\n%s", verdicts, want, out.String())
	}

	// A set against itself regresses nowhere.
	out.Reset()
	p := writeFixture(t, dir, "same.json", old)
	if code := compareFiles(p, p, &out); code != 0 || strings.Contains(out.String(), "regressed") {
		t.Errorf("self-comparison: exit %d\n%s", code, out.String())
	}
}

func TestCalibrateWidensOnlyTheNoisyPair(t *testing.T) {
	rs := fixtureSet(map[string]map[string][]float64{
		wlLive: {
			"cpu_ns_per_exchange": {1900, 2000, 2100, 2200, 2300}, // spread 14 %: 2× exceeds 10 %
			"peak_rss_mb":         {100, 100.5, 101, 101.5, 102},  // spread 1.5 %: stays
		},
		wlTCP: {
			"cpu_ns_per_exchange": {13000, 13100, 13200, 13300, 13400}, // spread 2.3 %: stays
		},
	})
	rs.calibrate(io.Discard)
	def, _ := findMetric("cpu_ns_per_exchange")
	if b := boundFor(def, wlLive, rs); b <= def.bound || b != rs.Bounds[wlLive][def.name] {
		t.Errorf("noisy pair's bound not widened: %v (bounds %v)", b, rs.Bounds)
	}
	if rs.Widened[wlLive][def.name] == "" {
		t.Error("a widened bound must say why")
	}
	if b := boundFor(def, wlTCP, rs); b != def.bound {
		t.Errorf("live-paced's noise widened tcp-mesh's bound to %v", b)
	}
	rss, _ := findMetric("peak_rss_mb")
	if b := boundFor(rss, wlLive, rs); b != rss.bound {
		t.Errorf("steady metric's bound changed to %v", b)
	}
}

// TestCompareGatesASteadyPairBesideANoisyOne is the reviewer's check
// run: the baseline's live-paced CPU cost is too noisy to resolve, and
// that must neither hide a +50 % change on tcp-mesh, whose spread is a
// few percent, nor ever read as ok on live-paced itself.
func TestCompareGatesASteadyPairBesideANoisyOne(t *testing.T) {
	values := map[string]map[string][]float64{
		wlLive: {"cpu_ns_per_exchange": {2060, 2130, 2280, 2340, 2920, 3080, 3150, 3155, 3280, 3470}}, // spread ≈ 34 %
		wlTCP:  {"cpu_ns_per_exchange": {13050, 13130, 13180, 13220, 13400, 13480, 13570, 13620, 14120, 14560}},
	}
	old := fixtureSet(values)
	old.calibrate(io.Discard)
	scaled := map[string]map[string][]float64{}
	for wl, metrics := range values {
		scaled[wl] = map[string][]float64{}
		for name, vs := range metrics {
			for _, v := range vs {
				scaled[wl][name] = append(scaled[wl][name], 1.5*v)
			}
		}
	}
	var out bytes.Buffer
	n := compareSets(old, fixtureSet(scaled), &out)
	got := verdictsOf(out.String())
	want := map[string]string{wlLive + "/cpu_ns_per_exchange": "unresolved", wlTCP + "/cpu_ns_per_exchange": "regressed"}
	if n != 1 || !reflect.DeepEqual(got, want) {
		t.Errorf("+50 %% everywhere: %d regressed, verdicts %v, want %v\n%s", n, got, want, out.String())
	}
	// The same noisy set against itself: no change, but live-paced is
	// not resolved and must say so.
	out.Reset()
	if n := compareSets(old, old, &out); n != 0 {
		t.Errorf("self-comparison regressed %d pairs\n%s", n, out.String())
	}
	got = verdictsOf(out.String())
	want = map[string]string{wlLive + "/cpu_ns_per_exchange": "unresolved", wlTCP + "/cpu_ns_per_exchange": "ok"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts %v, want %v\n%s", got, want, out.String())
	}
}

// TestBenchmarkJSONIsGenerated keeps ../BENCHMARK.json, the driver's
// contract, byte for byte what the workload and metric tables define
// (`-benchmark-json`), inside the contract's limits, and wide enough for
// the committed baseline's spreads.
func TestBenchmarkJSONIsGenerated(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is not what `run.sh -benchmark-json` prints; regenerate it. Want:\n%s", want)
	}

	spec := newBenchmarkSpec()
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 {
		t.Errorf("%d workloads, the contract admits 2 to 8", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d end_to_end and %d per_layer metrics, limits 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	baseline, err := readResultSet("baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > driverBoundCap {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, driverBoundCap)
		}
		for _, w := range workloads {
			if s := baseline.Workloads[w.name][m.Name]; s == nil {
				t.Errorf("baseline has no %s on %s", m.Name, w.name)
			} else if m.Name != "setup_s" && s.Spread > m.Bound {
				// The driver's own acceptance rule (set-up time is exempt).
				t.Errorf("%s on %s: baseline spread %v is wider than the bound %v", m.Name, w.name, s.Spread, m.Bound)
			}
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("end_to_end must carry setup_s")
	}
	for _, m := range spec.PerLayer {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q (unit %q): duplicate or over the name/unit limits", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs every workload end to end at the smoke scale, in this
// process: each must pass its own correctness checks, report every
// end-to-end metric it defines, and end with a result line the driver
// can read.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads for ≈2 s each")
	}
	logOut = io.Discard
	defer func() { logOut = os.Stderr }()
	dir := t.TempDir()
	var out bytes.Buffer
	for _, w := range workloads {
		out.Reset()
		if code := run([]string{"-smoke", "-out", dir, "--workload", w.name}, &out); code != 0 {
			t.Fatalf("%s smoke run exited %d\n%s", w.name, code, out.String())
		}
		rs, err := readResultSet(resultPath(dir, w.name))
		if err != nil {
			t.Fatal(err)
		}
		for _, def := range endToEnd {
			s := rs.Workloads[w.name][def.name]
			if def.definedOn(w.name) && s == nil {
				t.Errorf("%s did not report %s", w.name, def.name)
			}
			if s != nil && def.name != "failed_share" && s.Median == 0 {
				t.Errorf("%s reported %s = 0", w.name, def.name)
			}
		}
	}

	// The driver's own invocation: result object on the last line.
	out.Reset()
	if code := run([]string{"-smoke", "-out", dir, "--workload", wlKernel, "--seed", "3", "--seconds", "2", "--trace", "0"}, &out); code != 0 {
		t.Fatalf("driver-mode run exited %d\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct   *bool
		Attempted *int64
		Failed    *int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
		t.Errorf("result object %s", lines[len(lines)-1])
	}
	if len(line.Metrics) != len(driverEndToEnd()) {
		t.Errorf("result object carries %d metrics, want the %d end_to_end ones", len(line.Metrics), len(driverEndToEnd()))
	}
	for _, def := range driverEndToEnd() {
		if m, ok := line.Metrics[def.name]; !ok || m.Unit != def.unit || m.Value == 0 {
			t.Errorf("result object metric %s = %+v", def.name, m)
		}
	}
}
