package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"repro"
	"repro/serve"
)

// sseStream is the benchmark's one SSE client connection: a reader
// goroutine that timestamps and keeps every event.
type sseStream struct {
	cancel context.CancelFunc
	done   chan struct{}
	first  chan struct{} // closed when the first event arrives

	mu     sync.Mutex
	events []sseEvent
	err    error // why the reader stopped
}

func openStream(ctx context.Context, url string) (*sseStream, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	// Its own transport: the stream holds its connection for the whole
	// run and must not share the request connection's pool.
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	s := &sseStream{cancel: cancel, done: make(chan struct{}), first: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		err := readSSE(resp.Body, func(ev sseEvent) {
			s.mu.Lock()
			s.events = append(s.events, ev)
			n := len(s.events)
			s.mu.Unlock()
			if n == 1 {
				close(s.first)
			}
		})
		s.mu.Lock()
		s.err = err
		s.mu.Unlock()
	}()
	return s, nil
}

// snapshot returns the events received so far.
func (s *sseStream) snapshot() []sseEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sseEvent(nil), s.events...)
}

// broken reports whether the reader has stopped although nobody asked
// it to: a stream break.
func (s *sseStream) broken() error {
	select {
	case <-s.done:
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.err
	default:
		return nil
	}
}

// stop ends the stream from the client side and waits for the reader.
func (s *sseStream) stop() {
	s.cancel()
	<-s.done
}

// serveSession is one opened serve-mixed system with its two client
// connections (= nproc): the SSE stream and one keep-alive request
// connection.
type serveSession struct {
	liveSession
	sys     *repro.System
	handler *serve.Server
	base    string
	client  *http.Client
	led     *ledger
	stream  *sseStream
}

func openServeMixed(ctx context.Context, sc scale, seed uint64, traced bool) (*serveSession, error) {
	led := newLedger(rand.New(rand.NewPCG(seed, 0x1ed6e5)), sc.serveN, valueSpan)
	opts := []repro.Option{
		repro.WithSize(sc.serveN),
		repro.WithWorkers(2),
		repro.WithCycleLength(sc.serveCycle),
		repro.WithOps("127.0.0.1:0"),
		repro.WithSeed(seed),
		repro.WithValues(func(i int) float64 { return led.vals[i] }),
	}
	if traced {
		opts = append(opts, repro.WithTraceSampling(traceEvery))
	}
	begun := time.Now()
	sys, err := repro.Open(opts...)
	if err != nil {
		return nil, err
	}
	s := &serveSession{
		liveSession: liveSession{
			systems: []*repro.System{sys}, nodes: sc.serveN, cycle: sc.serveCycle,
			valueRange: valueSpan, openDur: time.Since(begun),
		},
		sys: sys, led: led, base: "http://" + sys.OpsAddr(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
	fail := func(err error) (*serveSession, error) {
		s.close()
		return nil, err
	}
	if s.handler, err = serve.Attach(sys); err != nil {
		return fail(err)
	}
	if s.stream, err = openStream(ctx, s.base+"/v1/stream/avg"); err != nil {
		return fail(err)
	}
	select {
	case <-s.stream.first:
	case <-s.stream.done:
		return fail(fmt.Errorf("stream ended before its first event: %v", s.stream.broken()))
	case <-time.After(10 * time.Second):
		return fail(errors.New("no SSE event within 10s"))
	}
	if status, err := s.do(&op{kind: opQuery}); err != nil || status != http.StatusOK {
		return fail(fmt.Errorf("first query: status %d, %v", status, err))
	}
	if err := s.awaitFirstExchange(ctx, begun); err != nil {
		return fail(err)
	}
	return s, nil
}

func (s *serveSession) close() time.Duration {
	start := time.Now()
	if s.stream != nil {
		s.stream.stop()
	}
	s.client.CloseIdleConnections()
	s.sys.Close()
	return time.Since(start)
}

// do sends one timetable request on the keep-alive connection and reads
// the whole response.
func (s *serveSession) do(o *op) (status int, err error) {
	var resp *http.Response
	if o.kind == opQuery {
		resp, err = s.client.Get(s.base + "/v1/query/avg")
	} else {
		resp, err = s.client.Post(s.base+"/v1/values", "application/json", bytes.NewReader(o.body))
	}
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// awaitSettled waits for the stream to show the initial values have
// converged, so the window measures steady service, not start-up.
func (s *serveSession) awaitSettled(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		evs := s.stream.snapshot()
		if last := evs[len(evs)-1]; last.Max-last.Min <= 2*trickleDelta {
			return nil
		}
		if err := s.stream.broken(); err != nil {
			return fmt.Errorf("stream broke during warm-up: %w", err)
		}
		if time.Now().After(deadline) {
			return errors.New("initial values did not converge within 10s")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(s.cycle):
		}
	}
}

// opResult is how one timetable request went.
type opResult struct {
	due, done time.Time
	status    int
	err       error
	span      int
}

func (r opResult) ok() bool { return r.err == nil && r.status == http.StatusOK }

// serveWindow is one measured interval of serve-mixed: the engine-side
// window plus the client-side record.
type serveWindow struct {
	*window
	start, end time.Time
	ops        []op
	results    []opResult
	events     []sseEvent // received inside the window
	late       timing
	streamErr  error
}

// measureServe runs the open-loop timetable for d while the engine-side
// window observes CPU and counters.
func (s *serveSession) measureServe(ctx context.Context, sc scale, seed uint64, d time.Duration, tr *tracer, parent int) (*serveWindow, error) {
	if err := s.awaitSettled(ctx); err != nil {
		return nil, err
	}
	sw := &serveWindow{ops: buildTimetable(seed, sc, d, s.led.clone())}
	sw.results = make([]opResult, len(sw.ops))

	var engine *window
	var engineErr error
	var wg sync.WaitGroup
	wg.Add(1)
	sw.start = time.Now()
	go func() {
		defer wg.Done()
		engine, engineErr = s.measure(ctx, d, false, tr, parent)
	}()
	p := pacer{start: sw.start}
	for i := range sw.ops {
		o := &sw.ops[i]
		if ctx.Err() != nil {
			break
		}
		due := p.wait(o)
		status, err := s.do(o)
		res := opResult{due: due, done: time.Now(), status: status, err: err}
		if res.ok() && o.kind != opQuery {
			s.led.apply(o)
		}
		res.span = tr.add(parent, o.kind.String(), due, res.done, map[string]any{"status": status})
		sw.results[i] = res
	}
	wg.Wait()
	if engineErr != nil {
		return nil, engineErr
	}
	sw.window, sw.late, sw.end = engine, p.late, time.Now()
	sw.streamErr = s.stream.broken()
	for _, ev := range s.stream.snapshot() {
		if !ev.recv.Before(sw.start) && !ev.recv.After(sw.end) {
			sw.events = append(sw.events, ev)
		}
	}
	return sw, nil
}

// serveAnalysis is what the client-side record of a window says.
type serveAnalysis struct {
	ack, visible, query, settle timing // seconds, from each request's due time
	staleness, jitter           timing // seconds
	trackingError               float64
	eventBytes                  float64
	httpFailed                  int
	steps                       int
	neverVisible, neverSettled  int
	// cause maps an event's index to the write it first made visible.
	cause map[int]int
}

// analyzeServe derives the latency distributions from a window's
// requests and events.
//
// A write is visible at the first event the server stamped after the
// write was acknowledged (time_unix_ms has millisecond resolution, so
// "after" is a strictly later millisecond); for a step write the event
// must also carry the ledger's new true mean. A step has settled at the
// first event from there on whose max−min is within 1 % of the shift it
// caused. Both are looked for only until the next step is acknowledged.
func analyzeServe(ops []op, results []opResult, events []sseEvent, cycle time.Duration) serveAnalysis {
	a := serveAnalysis{cause: make(map[int]int)}
	meanTol := 1e-6 * valueSpan

	// Acknowledgement time of the step after each index: the horizon of
	// a step's visibility and settle search.
	horizon := make([]int64, len(ops))
	next := int64(math.MaxInt64)
	for i := len(ops) - 1; i >= 0; i-- {
		horizon[i] = next
		if ops[i].kind == opStep && results[i].ok() {
			next = results[i].done.UnixMilli()
		}
	}

	cursor := 0
	for i := range ops {
		o, res := &ops[i], results[i]
		if !res.ok() {
			a.httpFailed++
			continue
		}
		latency := res.done.Sub(res.due).Seconds()
		if o.kind == opQuery {
			a.query.add(latency)
			continue
		}
		a.ack.add(latency)
		ackMs := res.done.UnixMilli()
		for cursor < len(events) && events[cursor].TimeUnixMs <= ackMs {
			cursor++
		}
		if o.kind == opTrickle {
			if cursor < len(events) {
				a.visible.add(events[cursor].recv.Sub(res.due).Seconds())
				if _, taken := a.cause[cursor]; !taken {
					a.cause[cursor] = i
				}
			}
			continue
		}
		a.steps++
		j := cursor
		for j < len(events) && events[j].TimeUnixMs <= horizon[i] && math.Abs(events[j].Mean-o.meanAfter) > meanTol {
			j++
		}
		if j >= len(events) || events[j].TimeUnixMs > horizon[i] {
			a.neverVisible++
			a.neverSettled++
			continue
		}
		a.visible.add(events[j].recv.Sub(res.due).Seconds())
		a.cause[j] = i
		for j < len(events) && events[j].TimeUnixMs <= horizon[i] && events[j].Max-events[j].Min > 0.01*math.Abs(o.deltaMean) {
			j++
		}
		if j >= len(events) || events[j].TimeUnixMs > horizon[i] {
			a.neverSettled++
			continue
		}
		a.settle.add(events[j].recv.Sub(res.due).Seconds())
	}

	for i, ev := range events {
		a.trackingError += (ev.Max - ev.Min) / valueSpan
		a.eventBytes += float64(ev.bytes)
		a.staleness.add(ev.recv.Sub(time.UnixMilli(ev.TimeUnixMs)).Seconds())
		if i > 0 {
			gap := ev.recv.Sub(events[i-1].recv) - cycle
			a.jitter.add(math.Abs(gap.Seconds()))
		}
	}
	if n := float64(len(events)); n > 0 {
		a.trackingError /= n
		a.eventBytes /= n
	}
	return a
}

func runServeMixed(ctx context.Context, cfg runConfig, tr *tracer) (*result, error) {
	r := newResult(wlServe, cfg)
	root := tr.begin(0, "run "+wlServe)
	defer tr.end(root)

	var log setupLog
	phase := tr.begin(root, "setup")
	sess, err := openServeMixed(ctx, cfg.scale, cfg.seed, false)
	tr.end(phase)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	log.opened(sess, false)

	d := cfg.window()
	phase = tr.begin(root, "untraced window")
	plain, err := sess.measureServe(ctx, cfg.scale, cfg.seed, d, nil, 0)
	tr.end(phase)
	if err != nil {
		sess.close()
		return nil, err
	}
	an := analyzeServe(plain.ops, plain.results, plain.events, sess.cycle)
	serveEndToEnd(ctx, r, sess, plain, an)
	log.closed(sess)
	err = log.repeat(r, tr, root, func() (opened, error) { return openServeMixed(ctx, cfg.scale, cfg.seed, false) })
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		r.finish()
		return r, nil
	}

	phase = tr.begin(root, "traced window")
	traced, err := openServeMixed(ctx, cfg.scale, cfg.seed, true)
	if err != nil {
		return nil, fmt.Errorf("open traced: %w", err)
	}
	log.opened(traced, true)
	tw, err := traced.measureServe(ctx, cfg.scale, cfg.seed, d, tr, phase)
	if err != nil {
		traced.close()
		return nil, err
	}
	tr.end(phase)
	tan := analyzeServe(tw.ops, tw.results, tw.events, traced.cycle)
	for j, i := range tan.cause {
		ev := tw.events[j]
		tr.add(tw.results[i].span, "sse event", time.UnixMilli(ev.TimeUnixMs), ev.recv,
			map[string]any{"seq": ev.Seq, "made_visible": tw.ops[i].kind.String()})
	}
	engineLayerCounts(r, tw.window, &traced.liveSession)
	serveLayerCounts(r, tw, tan, traced)
	r.set("engine.trace_overhead_share", tw.cpuNsPerExchange()/plain.cpuNsPerExchange()-1)

	p := runProbes(ctx, tr, root, cfg, shapesFor(wlServe, tw.window))
	p.serveProbes(ctx, tr, root, traced)
	p.report(r)
	log.closed(traced)
	log.reportLayer(r)
	r.set("engine.saturated_exchanges_per_s", saturatedRate(ctx, cfg))
	r.Budget = p.budget(wlServe, tw.window, plain.cpuNsPerExchange())
	r.set("engine.unattributed_ns", r.Budget.UnattributedN)
	r.finish()
	return r, nil
}

// serveEndToEnd fills the end-to-end metrics and checks from the
// untraced window.
func serveEndToEnd(ctx context.Context, r *result, sess *serveSession, w *serveWindow, an serveAnalysis) {
	r.setN("cpu_ns_per_exchange", w.cpuNsPerExchange(), int(w.stats.Replies), 0)
	r.set("completion", w.completion())
	r.set("peak_rss_mb", peakRSSMB())
	r.setTiming("write_ack_ms_p50", "", &an.ack, 1e3)
	r.setTiming("write_visible_ms_p50", "write_visible_ms_p99", &an.visible, 1e3)
	r.setTiming("query_ms_p50", "", &an.query, 1e3)
	r.setTiming("step_settle_ms_p50", "", &an.settle, 1e3)
	r.setN("tracking_error_mean", an.trackingError, len(w.events), 0)

	streamFailed := int64(0)
	if w.streamErr != nil {
		streamFailed = 1
	}
	r.ops(int64(w.stats.Initiated), int64(w.stats.SendErrors)) // missed reply deadlines: see liveWorkload.endToEnd
	r.ops(int64(len(w.ops)), int64(an.httpFailed))
	r.ops(1, streamFailed)
	r.ops(int64(2*an.steps), int64(an.neverVisible+an.neverSettled))

	r.check("no HTTP failures", an.httpFailed == 0, "%d of %d requests failed", an.httpFailed, len(w.ops))
	r.check("no SSE stream break", w.streamErr == nil, "stream error: %v; %d events received", w.streamErr, len(w.events))
	r.check("every step visible and settled", an.neverVisible == 0 && an.neverSettled == 0 && an.steps > 0,
		"%d steps, %d never visible, %d never settled", an.steps, an.neverVisible, an.neverSettled)
	est, err := sess.sys.Query(ctx, "avg")
	tol := 1e-3 * valueSpan
	r.check("mass conservation", err == nil && math.Abs(est.Mean-sess.led.mean()) <= tol,
		"mean of estimates %.6f, ledger mean %.6f, tolerance %.3g (err %v)", est.Mean, sess.led.mean(), tol, err)
}

// serveLayerCounts reads the system and serve layers' counters and the
// client-side per-layer timings of the traced window.
func serveLayerCounts(r *result, w *serveWindow, an serveAnalysis, sess *serveSession) {
	delta := func(name string) float64 { return w.last.sum(name) - w.first.sum(name) }
	cycles := w.wall.Seconds() / sess.cycle.Seconds()
	r.set("system.watch_reduces_per_cycle", delta("repro_watch_reduces_total")/cycles)
	r.set("system.watch_dropped", delta("repro_watch_dropped_total"))
	r.setTail("system.watch_tick_jitter_ms_p99", &an.jitter, 1e3)
	r.set("serve.sse_event_bytes", an.eventBytes)
	r.setTiming("serve.staleness_ms_p50", "serve.staleness_ms_p99", &an.staleness, 1e3)
	r.setTail("serve.write_ack_ms_p99", &an.ack, 1e3)
	r.setTail("serve.query_ms_p99", &an.query, 1e3)
	r.set("serve.events_sent", delta("repro_serve_events_sent_total"))
	r.set("serve.stream_dropped", delta("repro_serve_dropped_total"))
	r.setTail("bench.gen_late_ms_p99", &w.late, 1e3)
}
