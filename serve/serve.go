// Package serve is the aggregation-service front end: an HTTP API over
// a live repro.System that streams Watch estimates to external clients
// (Server-Sent Events), answers one-shot reductions, feeds values into
// the running aggregate, and injects faults — the "millions of users"
// half of the system, layered on the same primitives the in-process API
// uses.
//
// Endpoints (all under /v1/):
//
//	GET  /v1/stream/{field}  SSE stream: one JSON estimate per cycle,
//	                         latest-wins per subscriber (a slow client
//	                         skips snapshots, counted in "dropped",
//	                         instead of slowing anyone else down).
//	GET  /v1/query/{field}   one-shot reduction: count/mean/sum/min/
//	                         max/variance of the field right now.
//	                         ?mom=N replaces the mean with a
//	                         median-of-means estimate over N buckets
//	                         (robust to Byzantine outliers).
//	GET  /v1/telemetry       the System.Telemetry() snapshot as JSON.
//	POST /v1/values          batched value injection via System.SetValue
//	                         ({"field":"avg","values":[{"node":0,
//	                         "value":3.5},…]}).
//	POST /v1/scenario        live fault and adversary injection:
//	                         {"loss":0.05,"fail":[1,2],"revive":[3],
//	                         "adversary":{"behavior":"extreme-value",
//	                         "fraction":0.05,"magnitude":1000},
//	                         "robust":{"clamp":true,"clamp_min":-100,
//	                         "clamp_max":100,"trim":true,"trim_k":8}}
//	                         — any subset.
//
// All subscribers of one field share the system's per-field watch hub:
// however many streams are open, the field is reduced once per cycle,
// and per-stream server state is O(1) (a reused scratch buffer and a
// drop cursor), which is what lets one process hold 10⁵+ concurrent
// watchers (see cmd/aggload).
//
// Attach mounts the API on the system's WithOps listener next to
// /metrics; New builds a standalone http.Handler for custom listeners.
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"

	"repro"
	"repro/internal/metrics"
)

// Server is the service front end over one repro.System. It implements
// http.Handler; build with New (standalone) or Attach (mounted on the
// system's ops listener).
type Server struct {
	sys *repro.System
	mux *http.ServeMux

	// activeStreams/droppedTotal back both the repro_serve_* gauges and
	// the Telemetry stamping hook (System.SetServeStats).
	activeStreams atomic.Int64
	droppedTotal  atomic.Uint64

	streamsOpened *metrics.Counter
	eventsSent    *metrics.Counter
	valuesSet     *metrics.Counter
	queries       *metrics.Counter
	scenarioOps   *metrics.Counter
}

// New builds the front end for sys, registers its repro_serve_* series
// in the system's metric registry, and installs the Telemetry stamping
// hook. The returned Server is a ready http.Handler; use Attach instead
// to also mount it on the system's WithOps listener.
func New(sys *repro.System) *Server {
	reg := sys.Metrics()
	s := &Server{
		sys: sys,
		mux: http.NewServeMux(),
		streamsOpened: reg.Counter("repro_serve_streams_opened_total",
			"SSE streams accepted by the serve layer."),
		eventsSent: reg.Counter("repro_serve_events_sent_total",
			"SSE estimate events written to subscribers."),
		valuesSet: reg.Counter("repro_serve_values_injected_total",
			"Node values injected through POST /v1/values."),
		queries: reg.Counter("repro_serve_queries_total",
			"One-shot reductions served by GET /v1/query."),
		scenarioOps: reg.Counter("repro_serve_scenario_ops_total",
			"Fault-injection operations applied through POST /v1/scenario."),
	}
	reg.GaugeFunc("repro_serve_active_streams",
		"SSE streams currently open.",
		func() float64 { return float64(s.activeStreams.Load()) })
	reg.CounterFunc("repro_serve_dropped_total",
		"Snapshots lost to latest-wins delivery across all SSE streams.",
		s.droppedTotal.Load)
	sys.SetServeStats(func() (int, uint64) {
		return int(s.activeStreams.Load()), s.droppedTotal.Load()
	})
	s.mux.HandleFunc("GET /v1/stream/{field}", s.handleStream)
	s.mux.HandleFunc("GET /v1/query/{field}", s.handleQuery)
	s.mux.HandleFunc("GET /v1/telemetry", s.handleTelemetry)
	s.mux.HandleFunc("POST /v1/values", s.handleValues)
	s.mux.HandleFunc("POST /v1/scenario", s.handleScenario)
	return s
}

// Attach builds the front end and mounts it under /v1/ on the system's
// WithOps listener, beside /metrics and /healthz. Errors when the
// system was opened without WithOps — use New and your own listener in
// that case.
func Attach(sys *repro.System) (*Server, error) {
	s := New(sys)
	if err := sys.Handle("/v1/", s); err != nil {
		return nil, err
	}
	return s, nil
}

// ServeHTTP dispatches to the /v1/ routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handleStream is GET /v1/stream/{field}: subscribe to the field's
// watch hub and relay each estimate as one SSE "data:" event until the
// client disconnects or the system closes. Per-stream state is O(1):
// one reused scratch buffer and the last seen drop count. Backpressure
// is latest-wins end to end — the hub replaces the undelivered snapshot
// in the subscriber's one-slot channel, so a stalled client costs one
// slot, never a goroutine pile-up, and its skips surface in the
// "dropped" field of the events it does receive.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	field := r.PathValue("field")
	ch, err := s.sys.Watch(r.Context(), field)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	s.streamsOpened.Inc()
	s.activeStreams.Add(1)
	defer s.activeStreams.Add(-1)

	buf := make([]byte, 0, 256)
	lastDropped := 0
	for est := range ch {
		buf = append(buf[:0], "data: "...)
		buf = appendEstimateJSON(buf, est)
		buf = append(buf, '\n', '\n')
		if _, err := w.Write(buf); err != nil {
			return // client gone; ctx cancellation unsubscribes the hub
		}
		fl.Flush()
		s.eventsSent.Inc()
		if est.Dropped > lastDropped {
			s.droppedTotal.Add(uint64(est.Dropped - lastDropped))
			lastDropped = est.Dropped
		}
	}
	// Channel closed: the system is closing (or our context was
	// cancelled and the hub pruned us). Mark the clean end of stream so
	// clients can tell shutdown from a broken connection.
	_, _ = w.Write([]byte("event: end\ndata: {}\n\n"))
	fl.Flush()
}

// handleQuery is GET /v1/query/{field}: one shared-nothing reduction,
// rendered as count/mean/sum/min/max/variance. ?mom=N swaps the mean
// for a median-of-means estimate over N buckets — the robust read path
// for clients that suspect Byzantine reporters.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var est repro.Estimate
	var err error
	if momStr := r.URL.Query().Get("mom"); momStr != "" {
		buckets, perr := strconv.Atoi(momStr)
		if perr != nil || buckets < 1 {
			http.Error(w, "mom must be a positive integer bucket count", http.StatusBadRequest)
			return
		}
		est, err = s.sys.QueryRobust(r.Context(), r.PathValue("field"), buckets)
	} else {
		est, err = s.sys.Query(r.Context(), r.PathValue("field"))
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	s.queries.Inc()
	buf := appendQueryJSON(make([]byte, 0, 256), est)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf)
}

// handleTelemetry is GET /v1/telemetry: the consolidated health
// snapshot (convergence factor, tracking error, protocol counters,
// serve-layer stream stats) as one flat JSON object.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	buf := s.sys.Telemetry().AppendJSON(make([]byte, 0, 1024))
	buf = append(buf, '\n')
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf)
}

// valuesRequest is the POST /v1/values body: a batch of node/value
// pairs injected into one field.
type valuesRequest struct {
	Field  string `json:"field"`
	Values []struct {
		Node  int     `json:"node"`
		Value float64 `json:"value"`
	} `json:"values"`
}

// handleValues is POST /v1/values: batched live value injection through
// System.SetValue. The whole batch is validated before any value is
// applied, so a 4xx means no partial writes.
func (s *Server) handleValues(w http.ResponseWriter, r *http.Request) {
	var req valuesRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if _, err := s.sys.Schema().Index(req.Field); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	size := s.sys.Size()
	for _, v := range req.Values {
		if v.Node < 0 || v.Node >= size {
			http.Error(w, fmt.Sprintf("node %d out of range [0,%d)", v.Node, size), http.StatusBadRequest)
			return
		}
	}
	for _, v := range req.Values {
		if err := s.sys.SetValue(v.Node, req.Field, v.Value); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	s.valuesSet.Add(uint64(len(req.Values)))
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"applied\":%d}\n", len(req.Values))
}

// scenarioRequest is the POST /v1/scenario body; every axis is
// optional and any subset may be combined in one call.
type scenarioRequest struct {
	// Loss, when present, sets the probability with which each message
	// between two nodes is dropped (System.SetLoss; in-memory shapes
	// only, 0 turns it off).
	Loss *float64 `json:"loss"`
	// Fail and Revive name node indices to crash / bring back.
	Fail   []int `json:"fail"`
	Revive []int `json:"revive"`
	// Adversary, when present, reconfigures a fraction of the hosted
	// nodes as Byzantine adversaries (fraction 0 restores honesty).
	Adversary *struct {
		Behavior  string  `json:"behavior"`
		Fraction  float64 `json:"fraction"`
		Magnitude float64 `json:"magnitude"`
		Target    float64 `json:"target"`
	} `json:"adversary"`
	// Robust, when present, installs (or with a zero value removes) the
	// robust-merge countermeasures on every hosted node.
	Robust *struct {
		Clamp    bool    `json:"clamp"`
		ClampMin float64 `json:"clamp_min"`
		ClampMax float64 `json:"clamp_max"`
		Trim     bool    `json:"trim"`
		TrimK    float64 `json:"trim_k"`
	} `json:"robust"`
}

// handleScenario is POST /v1/scenario: live fault injection against the
// running system — message loss, node crashes, node revivals.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	var req scenarioRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	size := s.sys.Size()
	for _, i := range append(append([]int(nil), req.Fail...), req.Revive...) {
		if i < 0 || i >= size {
			http.Error(w, fmt.Sprintf("node %d out of range [0,%d)", i, size), http.StatusBadRequest)
			return
		}
	}
	if req.Loss != nil {
		if err := s.sys.SetLoss(*req.Loss); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.scenarioOps.Inc()
	}
	for _, i := range req.Fail {
		if err := s.sys.FailNode(i); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.scenarioOps.Inc()
	}
	for _, i := range req.Revive {
		if err := s.sys.ReviveNode(i); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.scenarioOps.Inc()
	}
	// Adversaries before robust countermeasures: the trim gate seeds its
	// acceptance band from the honest population, which is only known
	// once the adversaries are marked.
	if a := req.Adversary; a != nil {
		if err := s.sys.SetAdversaries(a.Behavior, a.Fraction, a.Magnitude, a.Target); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.scenarioOps.Inc()
	}
	if rb := req.Robust; rb != nil {
		cfg := repro.RobustConfig{
			Clamp: rb.Clamp, ClampMin: rb.ClampMin, ClampMax: rb.ClampMax,
			Trim: rb.Trim, TrimK: rb.TrimK,
		}
		if err := s.sys.SetRobust(cfg); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.scenarioOps.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"failed\":%d,\"revived\":%d,\"failed_now\":%d,\"adversaries_now\":%d}\n",
		len(req.Fail), len(req.Revive), s.sys.FailedNodes(), s.sys.AdversaryCount())
}

// appendEstimateJSON renders one Estimate as a flat JSON object,
// appended to buf. Hand-built (like the ops handlers) so the per-event
// hot path allocates nothing beyond the caller's reused buffer, and so
// NaN — legitimate before the first fold — renders as null.
func appendEstimateJSON(buf []byte, est repro.Estimate) []byte {
	buf = append(buf, `{"field":`...)
	buf = strconv.AppendQuote(buf, est.Field)
	buf = append(buf, `,"seq":`...)
	buf = strconv.AppendInt(buf, int64(est.Seq), 10)
	buf = append(buf, `,"time_unix_ms":`...)
	buf = strconv.AppendInt(buf, est.Time.UnixMilli(), 10)
	buf = append(buf, `,"nodes":`...)
	buf = strconv.AppendInt(buf, int64(est.Nodes), 10)
	for _, f := range []struct {
		key string
		v   float64
	}{
		{"mean", est.Mean}, {"variance", est.Variance},
		{"min", est.Min}, {"max", est.Max},
	} {
		buf = append(buf, ',', '"')
		buf = append(buf, f.key...)
		buf = append(buf, '"', ':')
		buf = appendJSONFloat(buf, f.v)
	}
	buf = append(buf, `,"dropped":`...)
	buf = strconv.AppendInt(buf, int64(est.Dropped), 10)
	buf = append(buf, '}')
	return buf
}

// appendQueryJSON renders a query response: the estimate plus the
// derived sum and an explicit count alias.
func appendQueryJSON(buf []byte, est repro.Estimate) []byte {
	buf = append(buf, `{"field":`...)
	buf = strconv.AppendQuote(buf, est.Field)
	buf = append(buf, `,"count":`...)
	buf = strconv.AppendInt(buf, int64(est.Nodes), 10)
	for _, f := range []struct {
		key string
		v   float64
	}{
		{"mean", est.Mean}, {"sum", est.Mean * float64(est.Nodes)},
		{"min", est.Min}, {"max", est.Max}, {"variance", est.Variance},
	} {
		buf = append(buf, ',', '"')
		buf = append(buf, f.key...)
		buf = append(buf, '"', ':')
		buf = appendJSONFloat(buf, f.v)
	}
	buf = append(buf, `,"time_unix_ms":`...)
	buf = strconv.AppendInt(buf, est.Time.UnixMilli(), 10)
	buf = append(buf, '}', '\n')
	return buf
}

// appendJSONFloat renders a float as JSON, mapping NaN and ±Inf (not
// representable in JSON) to null.
func appendJSONFloat(buf []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(buf, "null"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}
