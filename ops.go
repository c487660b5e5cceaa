package repro

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// opsServer is the operational HTTP endpoint behind WithOps: /metrics
// (Prometheus text exposition), /healthz, /varz (flat JSON) and
// net/http/pprof under /debug/pprof/. Every handler reads only atomics
// and per-cycle telemetry state, so scraping a busy 10⁵-node system
// never takes a shard lock.
type opsServer struct {
	ln  net.Listener
	srv *http.Server
	mux *http.ServeMux // retained so System.Handle can mount the serve layer

	// bufs recycles scrape buffers so steady-state /metrics and /varz
	// responses allocate nothing for the exposition itself.
	bufs sync.Pool
}

// startOps binds the ops listener and starts serving. Called by Open;
// a bind failure fails Open.
func (s *System) startOps(addr string) error {
	s.ensureTelemetry()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("repro: ops listen %s: %w", addr, err)
	}
	ops := &opsServer{ln: ln}
	ops.bufs.New = func() any { b := make([]byte, 0, 16<<10); return &b }
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		bp := ops.bufs.Get().(*[]byte)
		buf := s.metrics.AppendPrometheus((*bp)[:0])
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf)
		*bp = buf[:0]
		ops.bufs.Put(bp)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		tel := s.Telemetry()
		bp := ops.bufs.Get().(*[]byte)
		buf := appendHealthJSON((*bp)[:0], s, tel)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(buf)
		*bp = buf[:0]
		ops.bufs.Put(bp)
	})
	mux.HandleFunc("/varz", func(w http.ResponseWriter, r *http.Request) {
		tel := s.Telemetry()
		bp := ops.bufs.Get().(*[]byte)
		buf := append((*bp)[:0], `{"telemetry":`...)
		buf = appendTelemetryJSON(buf, tel)
		buf = append(buf, `,"metrics":`...)
		buf = s.metrics.AppendJSON(buf)
		buf = append(buf, "}\n"...)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(buf)
		*bp = buf[:0]
		ops.bufs.Put(bp)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ops.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ops.mux = mux
	go func() { _ = ops.srv.Serve(ln) }()
	s.ops = ops
	return nil
}

// opsDrainTimeout bounds the graceful drain in stop. Streaming handlers
// end as soon as their Watch channels close (System.Close closes s.done
// first), so the bound only bites if a response write wedges.
const opsDrainTimeout = 5 * time.Second

// stop drains the ops server gracefully: the listener closes at once,
// and in-flight handlers — scrapes, and the serve layer's SSE streams,
// whose Watch channels the already-closed s.done has released — finish
// their final writes so clients see clean ends of stream rather than
// connection resets. Close is the fallback if the drain exceeds its
// timeout.
func (o *opsServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), opsDrainTimeout)
	defer cancel()
	if err := o.srv.Shutdown(ctx); err != nil {
		_ = o.srv.Close()
	}
}

// Handle mounts h on the ops mux under pattern (net/http ServeMux
// syntax), beside /metrics, /healthz, /varz and /debug/pprof/. This is
// how the serve package attaches its /v1/ API to the same listener.
// Errors when the system was opened without WithOps.
func (s *System) Handle(pattern string, h http.Handler) error {
	if s.ops == nil {
		return fmt.Errorf("repro: Handle requires WithOps")
	}
	s.ops.mux.Handle(pattern, h)
	return nil
}

// OpsAddr returns the ops HTTP server's bound address ("" when WithOps
// was not configured) — the base for /metrics, /healthz, /varz and
// /debug/pprof/ URLs. With WithOps("127.0.0.1:0") this is where the
// ephemeral port landed.
func (s *System) OpsAddr() string {
	if s.ops == nil {
		return ""
	}
	return s.ops.ln.Addr().String()
}

// appendHealthJSON renders the /healthz body: liveness plus the
// one-line convergence summary an operator checks first.
func appendHealthJSON(buf []byte, s *System, tel Telemetry) []byte {
	buf = append(buf, `{"status":"ok","nodes":`...)
	buf = strconv.AppendInt(buf, int64(tel.Nodes), 10)
	buf = append(buf, `,"uptime_seconds":`...)
	buf = appendJSONFloat(buf, time.Since(s.openedAt).Seconds())
	buf = append(buf, `,"variance":`...)
	buf = appendJSONFloat(buf, tel.Variance)
	buf = append(buf, `,"converged":`...)
	buf = strconv.AppendBool(buf, tel.Converged)
	buf = append(buf, `,"rho":`...)
	buf = appendJSONFloat(buf, tel.Rho)
	buf = append(buf, "}\n"...)
	return buf
}

// appendTelemetryJSON renders a Telemetry snapshot as one flat JSON
// object.
func appendTelemetryJSON(buf []byte, tel Telemetry) []byte {
	return tel.AppendJSON(buf)
}

// AppendJSON renders the snapshot as one flat JSON object, appended to
// buf. Hand-built because encoding/json rejects the NaNs that are
// legitimate "not yet known" values here (they render as null). Used by
// the /varz handler and the serve layer's GET /v1/telemetry.
func (tel Telemetry) AppendJSON(buf []byte) []byte {
	buf = append(buf, `{"field":`...)
	buf = strconv.AppendQuote(buf, tel.Field)
	buf = append(buf, `,"seq":`...)
	buf = strconv.AppendInt(buf, int64(tel.Seq), 10)
	buf = append(buf, `,"nodes":`...)
	buf = strconv.AppendInt(buf, int64(tel.Nodes), 10)
	buf = append(buf, `,"workers":`...)
	buf = strconv.AppendInt(buf, int64(tel.Workers), 10)
	for _, f := range []struct {
		key string
		v   float64
	}{
		{"mean", tel.Mean}, {"variance", tel.Variance},
		{"min", tel.Min}, {"max", tel.Max},
		{"rho", tel.Rho}, {"rho_geo", tel.RhoGeo},
		{"true_mean", tel.TrueMean}, {"tracking_error", tel.TrackingError},
		{"corruption", tel.Corruption},
		{"completion", tel.Completion},
	} {
		buf = append(buf, ',', '"')
		buf = append(buf, f.key...)
		buf = append(buf, '"', ':')
		buf = appendJSONFloat(buf, f.v)
	}
	buf = append(buf, `,"rho_cycles":`...)
	buf = appendJSONFloat(buf, tel.RhoCycles)
	buf = append(buf, `,"converged":`...)
	buf = strconv.AppendBool(buf, tel.Converged)
	buf = append(buf, `,"serve_streams":`...)
	buf = strconv.AppendInt(buf, int64(tel.ServeStreams), 10)
	buf = append(buf, `,"serve_dropped":`...)
	buf = strconv.AppendUint(buf, tel.ServeDropped, 10)
	buf = append(buf, `,"adversary_nodes":`...)
	buf = strconv.AppendInt(buf, int64(tel.AdversaryNodes), 10)
	buf = append(buf, `,"robust_rejected":`...)
	buf = strconv.AppendUint(buf, tel.RobustRejected, 10)
	buf = append(buf, `,"exchanges_initiated":`...)
	buf = strconv.AppendUint(buf, tel.Stats.Initiated, 10)
	buf = append(buf, `,"exchanges_completed":`...)
	buf = strconv.AppendUint(buf, tel.Stats.Replies, 10)
	buf = append(buf, `,"exchange_timeouts":`...)
	buf = strconv.AppendUint(buf, tel.Stats.Timeouts, 10)
	buf = append(buf, `,"shard_initiated":[`...)
	for i, v := range tel.ShardInitiated {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(buf, v, 10)
	}
	buf = append(buf, ']', '}')
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
