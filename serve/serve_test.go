package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/serve"
)

// openServed brings up a small system with the front end mounted on its
// ops listener and returns the system plus the http://host:port base.
func openServed(t *testing.T, opts ...repro.Option) (*repro.System, string) {
	t.Helper()
	sys, err := repro.Open(append([]repro.Option{
		repro.WithSize(32),
		repro.WithValues(func(i int) float64 { return float64(i) }),
		repro.WithCycleLength(5 * time.Millisecond),
		repro.WithOps("127.0.0.1:0"),
		repro.WithSeed(5),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if _, err := serve.Attach(sys); err != nil {
		t.Fatal(err)
	}
	return sys, "http://" + sys.OpsAddr()
}

// streamEvent is the decoded form of one SSE "data:" payload.
type streamEvent struct {
	Field   string   `json:"field"`
	Seq     uint64   `json:"seq"`
	Nodes   int      `json:"nodes"`
	Mean    *float64 `json:"mean"`
	Dropped int      `json:"dropped"`
}

// readEvent reads SSE lines until one data: payload arrives.
func readEvent(t *testing.T, br *bufio.Reader) streamEvent {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev streamEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		return ev
	}
}

// TestStreamDeliversEstimates: the SSE endpoint emits one JSON estimate
// per cycle with advancing sequence numbers, and an open stream is
// visible in telemetry and /metrics.
func TestStreamDeliversEstimates(t *testing.T) {
	sys, base := openServed(t)

	resp, err := http.Get(base + "/v1/stream/avg")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	br := bufio.NewReader(resp.Body)
	first := readEvent(t, br)
	if first.Field != "avg" || first.Nodes != 32 {
		t.Fatalf("first event %+v, want field avg over 32 nodes", first)
	}
	second := readEvent(t, br)
	if second.Seq <= first.Seq {
		t.Fatalf("sequence did not advance: %d then %d", first.Seq, second.Seq)
	}

	// The open stream shows up in Telemetry and in the Prometheus text.
	deadline := time.Now().Add(2 * time.Second)
	for sys.Telemetry().ServeStreams != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("ServeStreams = %d, want 1", sys.Telemetry().ServeStreams)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"repro_serve_active_streams 1",
		"repro_serve_streams_opened_total 1",
		"repro_serve_events_sent_total",
		"repro_serve_dropped_total",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestQueryAndValuesRoundTrip: POST /v1/values moves the aggregate and
// GET /v1/query reports the moved mean (count, sum and mean agree).
func TestQueryAndValuesRoundTrip(t *testing.T) {
	_, base := openServed(t)

	var body bytes.Buffer
	body.WriteString(`{"field":"avg","values":[`)
	for i := 0; i < 32; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"node":%d,"value":10}`, i)
	}
	body.WriteString("]}")
	resp, err := http.Post(base+"/v1/values", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	applied, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(applied), `"applied":32`) {
		t.Fatalf("POST /v1/values: %d %s", resp.StatusCode, applied)
	}

	// Exchanges conserve the injected mass exactly, so the queried mean
	// is 10 as soon as the batch lands — no convergence wait needed.
	qresp, err := http.Get(base + "/v1/query/avg")
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	var q struct {
		Field string  `json:"field"`
		Count int     `json:"count"`
		Mean  float64 `json:"mean"`
		Sum   float64 `json:"sum"`
	}
	if err := json.NewDecoder(qresp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if q.Field != "avg" || q.Count != 32 {
		t.Fatalf("query %+v, want avg over 32 nodes", q)
	}
	if math.Abs(q.Mean-10) > 1e-9 || math.Abs(q.Sum-320) > 1e-6 {
		t.Fatalf("query mean %v sum %v, want 10 and 320 (injected mass leaked)", q.Mean, q.Sum)
	}
}

// TestScenarioEndpoint: POST /v1/scenario fails and revives nodes and
// adjusts the message loss, with the live population reflected in queries.
func TestScenarioEndpoint(t *testing.T) {
	sys, base := openServed(t)

	resp, err := http.Post(base+"/v1/scenario", "application/json",
		strings.NewReader(`{"loss":0.05,"fail":[0,1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), `"failed_now":4`) {
		t.Fatalf("POST /v1/scenario: %d %s", resp.StatusCode, out)
	}
	if got := sys.FailedNodes(); got != 4 {
		t.Fatalf("FailedNodes = %d, want 4", got)
	}

	qresp, err := http.Get(base + "/v1/query/avg")
	if err != nil {
		t.Fatal(err)
	}
	var q struct {
		Count int `json:"count"`
	}
	_ = json.NewDecoder(qresp.Body).Decode(&q)
	qresp.Body.Close()
	if q.Count != 28 {
		t.Fatalf("query count %d with 4 failed nodes, want 28", q.Count)
	}

	resp, err = http.Post(base+"/v1/scenario", "application/json",
		strings.NewReader(`{"loss":0,"revive":[0,1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	out, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(out), `"failed_now":0`) {
		t.Fatalf("revive response: %s", out)
	}
}

// scrapeCounter reads one unlabelled series from the served /metrics
// exposition (-1 when it is not exposed).
func scrapeCounter(t *testing.T, base, series string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			var f float64
			if _, err := fmt.Sscan(v, &f); err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return f
		}
	}
	return -1
}

// TestScenarioLossDropsMessages: a served {"loss":0.05} reaches the
// runtime's loss stage, whose drops raise
// repro_transport_fabric_loss_dropped_total.
func TestScenarioLossDropsMessages(t *testing.T) {
	_, base := openServed(t)
	const series = "repro_transport_fabric_loss_dropped_total"
	if v := scrapeCounter(t, base, series); v != 0 {
		t.Fatalf("%s = %g before any loss was set, want 0", series, v)
	}
	resp, err := http.Post(base+"/v1/scenario", "application/json", strings.NewReader(`{"loss":0.05}`))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/scenario: %d %s", resp.StatusCode, out)
	}
	deadline := time.Now().Add(10 * time.Second)
	for scrapeCounter(t, base, series) <= 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s never rose after loss 0.05", series)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestScenarioAdversaryEndpoint: POST /v1/scenario turns a slice of the
// population Byzantine and installs the robust-merge countermeasures;
// GET /v1/query?mom= serves the median-of-means read path.
func TestScenarioAdversaryEndpoint(t *testing.T) {
	sys, base := openServed(t)

	resp, err := http.Post(base+"/v1/scenario", "application/json",
		strings.NewReader(`{"adversary":{"behavior":"extreme-value","fraction":0.1,"magnitude":1000},
			"robust":{"clamp":true,"clamp_min":-100,"clamp_max":100,"trim":true,"trim_k":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), `"adversaries_now":3`) {
		t.Fatalf("POST /v1/scenario adversary: %d %s", resp.StatusCode, out)
	}
	if got := sys.AdversaryCount(); got != 3 {
		t.Fatalf("AdversaryCount = %d, want 3", got)
	}

	// The robust read path: ?mom=N swaps the mean for median-of-means.
	qresp, err := http.Get(base + "/v1/query/avg?mom=4")
	if err != nil {
		t.Fatal(err)
	}
	var q struct {
		Count int      `json:"count"`
		Mean  *float64 `json:"mean"`
	}
	if err := json.NewDecoder(qresp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if q.Count != 29 || q.Mean == nil {
		t.Fatalf("robust query %+v, want 29 honest nodes and a non-null mean", q)
	}

	// Telemetry reports the attack surface.
	tresp, err := http.Get(base + "/v1/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	tbody, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	for _, want := range []string{`"adversary_nodes":3`, `"robust_rejected":`, `"corruption":`} {
		if !strings.Contains(string(tbody), want) {
			t.Fatalf("/v1/telemetry missing %s: %s", want, tbody)
		}
	}

	// Validation: bad mom values and unknown behaviors are 400s.
	for _, tc := range []struct{ method, url, body string }{
		{"GET", base + "/v1/query/avg?mom=0", ""},
		{"GET", base + "/v1/query/avg?mom=bogus", ""},
		{"POST", base + "/v1/scenario", `{"adversary":{"behavior":"gaslighting","fraction":0.1}}`},
		{"POST", base + "/v1/scenario", `{"adversary":{"behavior":"extreme-value","fraction":1.5}}`},
		{"POST", base + "/v1/scenario", `{"robust":{"clamp":true,"clamp_min":5,"clamp_max":-5}}`},
	} {
		var resp *http.Response
		var err error
		if tc.method == "GET" {
			resp, err = http.Get(tc.url)
		} else {
			resp, err = http.Post(tc.url, "application/json", strings.NewReader(tc.body))
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s %s: %d, want 400", tc.method, tc.url, tc.body, resp.StatusCode)
		}
	}

	// Fraction 0 restores honesty.
	resp, err = http.Post(base+"/v1/scenario", "application/json",
		strings.NewReader(`{"adversary":{"behavior":"extreme-value","fraction":0}}`))
	if err != nil {
		t.Fatal(err)
	}
	out, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(out), `"adversaries_now":0`) {
		t.Fatalf("restore response: %s", out)
	}
}

// TestErrorCases: unknown fields 404, malformed bodies and out-of-range
// nodes 400 — and a rejected batch applies nothing.
func TestErrorCases(t *testing.T) {
	sys, base := openServed(t)

	for _, url := range []string{base + "/v1/stream/nope", base + "/v1/query/nope"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", url, resp.StatusCode)
		}
	}

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"field":"nope","values":[{"node":0,"value":1}]}`, http.StatusNotFound},
		{`{"field":"avg","values":[{"node":99,"value":1},{"node":0,"value":1}]}`, http.StatusBadRequest},
		{`{not json`, http.StatusBadRequest},
	} {
		resp, err := http.Post(base+"/v1/values", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("POST /v1/values %q: %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	// The mixed batch above 400ed before applying anything: node 0 keeps
	// its original value, so the true mean is untouched.
	if tm := sys.Telemetry().TrueMean; math.Abs(tm-15.5) > 1e-9 {
		t.Fatalf("true mean %v after rejected batch, want 15.5 (partial write)", tm)
	}

	resp, err := http.Post(base+"/v1/scenario", "application/json",
		strings.NewReader(`{"fail":[99]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /v1/scenario out-of-range: %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(base + "/v1/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	tbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(tbody), `"serve_streams":`) {
		t.Fatalf("/v1/telemetry missing serve_streams: %s", tbody)
	}
}

// TestCloseEndsStreamsCleanly: System.Close terminates in-flight SSE
// streams with an explicit "event: end" and a clean EOF — the drain in
// the ops stop path — rather than a connection reset mid-event.
func TestCloseEndsStreamsCleanly(t *testing.T) {
	sys, base := openServed(t)

	resp, err := http.Get(base + "/v1/stream/avg")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	readEvent(t, br) // stream is live

	closed := make(chan struct{})
	go func() { sys.Close(); close(closed) }()

	// Everything after this point must still parse as SSE frames and end
	// in the explicit terminator, then EOF with no transport error.
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("stream did not end cleanly: %v", err)
	}
	if !strings.Contains(string(rest), "event: end") {
		t.Fatalf("stream tail %q missing the end-of-stream event", rest)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("System.Close wedged behind the open stream")
	}
}
