package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro"
	"repro/internal/transport"
)

// traceEvery is the engine's exchange-trace sampling period in the
// traced run (WithTraceSampling).
const traceEvery = 64

// liveSession is one opened set of live systems under measurement: one
// in-memory system (live-paced, serve-mixed) or the two TCP hosts of
// tcp-mesh.
type liveSession struct {
	systems    []*repro.System
	nodes      int
	cycle      time.Duration
	trueMean   float64
	valueRange float64
	openDur    time.Duration // Open calls alone
	setupDur   time.Duration // Open … first exchange completed
}

func (s *liveSession) stats() repro.NodeStats {
	var t repro.NodeStats
	for _, sys := range s.systems {
		st := sys.Stats()
		t.Initiated += st.Initiated
		t.Replies += st.Replies
		t.Timeouts += st.Timeouts
		t.LateReplies += st.LateReplies
		t.SendErrors += st.SendErrors
		t.PeerBusy += st.PeerBusy
		t.StaleDropped += st.StaleDropped
	}
	return t
}

// timings reports how long the Open calls and the whole set-up took.
func (s *liveSession) timings() (open, setup time.Duration) { return s.openDur, s.setupDur }

// opened is a set-up session as the set-up bookkeeping sees it.
type opened interface {
	timings() (open, setup time.Duration)
	close() time.Duration
}

// setupLog collects set-up, Open and Close times over a run's sessions.
type setupLog struct {
	setups        []float64 // seconds, untraced sessions only
	opens, closes []float64 // milliseconds
}

func (l *setupLog) opened(s opened, traced bool) {
	open, setup := s.timings()
	l.opens = append(l.opens, open.Seconds()*1e3)
	if !traced {
		l.setups = append(l.setups, setup.Seconds())
	}
}

func (l *setupLog) closed(s opened) { l.closes = append(l.closes, s.close().Seconds()*1e3) }

// repeat sets up and tears down until setupRepeats set-ups are on
// record, and reports their median as setup_s. It runs after the
// measured window, so that peak RSS at window end is one system's, not
// several systems' garbage.
func (l *setupLog) repeat(r *result, tr *tracer, root int, open func() (opened, error)) error {
	phase := tr.begin(root, "setup repeats")
	defer tr.end(phase)
	for len(l.setups) < setupRepeats {
		s, err := open()
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		l.opened(s, false)
		l.closed(s)
	}
	r.setN("setup_s", median(l.setups), len(l.setups), 0.5)
	return nil
}

// reportLayer records the system layer's Open and Close times.
func (l *setupLog) reportLayer(r *result) {
	r.set("system.open_ms", median(l.opens))
	r.set("system.close_ms", median(l.closes))
}

// close shuts every system down and returns how long that took.
func (s *liveSession) close() time.Duration {
	start := time.Now()
	for _, sys := range s.systems {
		sys.Close()
	}
	return time.Since(start)
}

// scrape reads every system's registry into one map, keys prefixed with
// the system's index so two hosts' shard labels cannot collide.
func (s *liveSession) scrape(buf *[]byte) scrape {
	out := make(scrape)
	for i, sys := range s.systems {
		for k, v := range scrapeSystem(sys, buf) {
			out[fmt.Sprintf("%d|%s", i, k)] = v
		}
	}
	return out
}

// awaitFirstExchange blocks until the session has completed one
// exchange — the end of set-up: the systems are open, membership is
// bootstrapped and a push has made the full round trip.
func (s *liveSession) awaitFirstExchange(ctx context.Context, begun time.Time) error {
	deadline := begun.Add(30 * time.Second)
	for s.stats().Replies == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no exchange completed within 30s of Open")
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.setupDur = time.Since(begun)
	return nil
}

// moments folds the named field over every system: the population mean
// and variance across hosts, as one Query per system (count, mean and
// variance combine exactly).
func (s *liveSession) moments(ctx context.Context) (mean, variance float64, err error) {
	var n, sum, ss float64
	for _, sys := range s.systems {
		est, err := sys.Query(ctx, "avg")
		if err != nil {
			return 0, 0, err
		}
		k := float64(est.Nodes)
		n += k
		sum += k * est.Mean
		// Query's variance is the unbiased sample variance.
		ss += (k-1)*est.Variance + k*est.Mean*est.Mean
	}
	mean = sum / n
	variance = (ss - n*mean*mean) / (n - 1)
	if variance < 0 {
		variance = 0
	}
	return mean, variance, nil
}

// convergedShare is the share of nodes whose estimate lies within tol
// of the true mean.
func (s *liveSession) convergedShare(ctx context.Context, tol float64) (float64, error) {
	var in, all int
	for _, sys := range s.systems {
		err := sys.Reduce(ctx, "avg", reducerFunc(func(x float64) {
			all++
			if math.Abs(x-s.trueMean) <= tol {
				in++
			}
		}))
		if err != nil {
			return 0, err
		}
	}
	return float64(in) / float64(all), nil
}

type reducerFunc func(float64)

func (f reducerFunc) Add(x float64) { f(x) }

// openLivePaced opens the live-paced system: the step layout (the lower
// half of the index space holds 0, the upper half 100), which is
// correlated with node index on purpose — an i%2 layout hides every
// locality defect of the partner selection (README, "Known baseline
// behaviour").
func openLivePaced(ctx context.Context, sc scale, seed uint64, traced bool) (*liveSession, error) {
	n := sc.liveN
	opts := []repro.Option{
		repro.WithSize(n),
		repro.WithWorkers(2),
		repro.WithCycleLength(sc.liveCycle),
		repro.WithSeed(seed),
		repro.WithValues(func(i int) float64 {
			if i < n/2 {
				return 0
			}
			return 100
		}),
	}
	if traced {
		opts = append(opts, repro.WithTraceSampling(traceEvery))
	}
	begun := time.Now()
	sys, err := repro.Open(opts...)
	if err != nil {
		return nil, err
	}
	s := &liveSession{
		systems: []*repro.System{sys}, nodes: n, cycle: sc.liveCycle,
		trueMean: 100 * float64(n-n/2) / float64(n), valueRange: 100,
		openDur: time.Since(begun),
	}
	if err := s.awaitFirstExchange(ctx, begun); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// openTCPMesh opens two systems joined over real loopback sockets: host
// A's nodes all hold 0 and host B's all hold 100, B seeded with A's
// listen address.
func openTCPMesh(ctx context.Context, sc scale, seed uint64, traced bool) (*liveSession, error) {
	open := func(value float64, seed uint64, peers ...string) (*repro.System, error) {
		opts := []repro.Option{
			repro.WithTCP("127.0.0.1:0", peers...),
			repro.WithSize(sc.tcpN),
			repro.WithWorkers(1),
			repro.WithCycleLength(sc.tcpCycle),
			repro.WithSeed(seed),
			repro.WithValue(value),
		}
		if traced {
			opts = append(opts, repro.WithTraceSampling(traceEvery))
		}
		return repro.Open(opts...)
	}
	begun := time.Now()
	a, err := open(0, seed)
	if err != nil {
		return nil, err
	}
	b, err := open(100, seed+1, transport.BaseAddr(a.Nodes()[0].Addr()))
	if err != nil {
		a.Close()
		return nil, err
	}
	s := &liveSession{
		systems: []*repro.System{a, b}, nodes: 2 * sc.tcpN, cycle: sc.tcpCycle,
		trueMean: 50, valueRange: 100,
		openDur: time.Since(begun),
	}
	if err := s.awaitFirstExchange(ctx, begun); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// window is what one measured interval of a live session yields.
type window struct {
	wall    time.Duration
	cpu     time.Duration
	stats   repro.NodeStats // deltas over the window
	subNs   []float64       // cpu ns per completed exchange, per 1 s sub-window
	traj    []convSample    // variance trajectory while sampled
	first   scrape          // registry at window start (traced only)
	last    scrape          // registry at window end (traced only)
	lagMs   float64         // max shard lag over the 1 Hz scrapes
	inbox   float64         // max inbox depth over the 1 Hz scrapes
	mallocs uint64          // heap allocations over the window (traced only)
}

// cpuNsPerExchange is the window's headline cost: process CPU time per
// completed exchange.
func (w *window) cpuNsPerExchange() float64 {
	if w.stats.Replies == 0 {
		return math.NaN()
	}
	return float64(w.cpu.Nanoseconds()) / float64(w.stats.Replies)
}

func (w *window) completion() float64 {
	if w.stats.Initiated == 0 {
		return math.NaN()
	}
	return float64(w.stats.Replies) / float64(w.stats.Initiated)
}

// convCycles is how many executed cycles of a fresh system's variance
// trajectory are sampled (ρ̂ spans 25 of them).
const convCycles = 30

// measure runs one window of length d over the session. The systems
// pace themselves — every node initiates once per Δt, so the offered
// rate is N/Δt regardless of how the host is doing — and the window
// only observes: CPU time and protocol counters at 1 s sub-windows,
// and, when conv is set, the variance trajectory twice per cycle for
// the first convCycles executed cycles. A tracer adds 1 Hz registry
// scrapes. The context ends the window early.
func (s *liveSession) measure(ctx context.Context, d time.Duration, conv bool, tr *tracer, parent int) (*window, error) {
	w := &window{}
	var buf []byte
	// Collect set-up's garbage first, so every run enters the window
	// with the same heap and the collector's next cycle — and with it
	// peak RSS — does not depend on how set-up happened to allocate.
	runtime.GC()
	if tr != nil {
		w.first = s.scrape(&buf)
		w.mallocs = mallocs()
	}
	start := time.Now()
	end := start.Add(d)
	cpu0, st0 := cpuTime(), s.stats()
	subCPU, subSt, nextSub := cpu0, st0, start.Add(time.Second)
	nextConv := start
	sampleConv := func() error {
		_, variance, err := s.moments(ctx)
		if err != nil {
			return err
		}
		cycles := float64(s.stats().Initiated) / float64(s.nodes)
		w.traj = append(w.traj, convSample{cycles: cycles, variance: variance})
		if cycles-w.traj[0].cycles >= convCycles {
			conv = false
		}
		return nil
	}
	for {
		now := time.Now()
		if conv && !now.Before(nextConv) {
			if err := sampleConv(); err != nil {
				return nil, err
			}
			nextConv = nextConv.Add(s.cycle / 2)
		}
		if !now.Before(nextSub) {
			c, st := cpuTime(), s.stats()
			if dr := st.Replies - subSt.Replies; dr > 0 {
				w.subNs = append(w.subNs, float64((c-subCPU).Nanoseconds())/float64(dr))
			}
			subCPU, subSt = c, st
			nextSub = nextSub.Add(time.Second)
			if tr != nil {
				sc := s.scrape(&buf)
				tr.scrape(sc)
				w.lagMs = math.Max(w.lagMs, sc.max("repro_engine_shard_lag_seconds")*1e3)
				w.inbox = math.Max(w.inbox, sc.max("repro_engine_inbox_depth"))
			}
		}
		if !now.Before(end) {
			break
		}
		wake := end
		if nextSub.Before(wake) {
			wake = nextSub
		}
		if conv && nextConv.Before(wake) {
			wake = nextConv
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Until(wake)):
		}
	}
	st1 := s.stats()
	w.cpu = cpuTime() - cpu0
	w.wall = time.Since(start)
	w.stats = repro.NodeStats{
		Initiated:    st1.Initiated - st0.Initiated,
		Replies:      st1.Replies - st0.Replies,
		Timeouts:     st1.Timeouts - st0.Timeouts,
		LateReplies:  st1.LateReplies - st0.LateReplies,
		SendErrors:   st1.SendErrors - st0.SendErrors,
		PeerBusy:     st1.PeerBusy - st0.PeerBusy,
		StaleDropped: st1.StaleDropped - st0.StaleDropped,
	}
	if tr != nil {
		w.last = s.scrape(&buf)
		w.mallocs = mallocs() - w.mallocs
		tr.add(parent, "window", start, time.Now(), map[string]any{
			"exchanges": w.stats.Replies, "cpu_ns": w.cpu.Nanoseconds(),
		})
	}
	return w, nil
}

// liveWorkload is the shared shape of live-paced and tcp-mesh: set up,
// measure, check mass conservation, set up again for the median,
// and on a traced run measure again with engine tracing on and read the
// layers' counters.
type liveWorkload struct {
	name string
	open func(ctx context.Context, sc scale, seed uint64, traced bool) (*liveSession, error)
	// convergence marks the workload whose ρ̂ and cycles-to-ε are
	// end-to-end metrics (live-paced). tcp-mesh reports them per layer:
	// at this baseline its cross-host mesh does not converge repeatably.
	convergence bool
}

func (lw liveWorkload) run(ctx context.Context, cfg runConfig, tr *tracer) (*result, error) {
	r := newResult(lw.name, cfg)
	root := tr.begin(0, "run "+lw.name)
	defer tr.end(root)

	// Set-up. The first session is the one measured; the repeats that
	// make setup_s a median come after the window.
	var log setupLog
	phase := tr.begin(root, "setup")
	sess, err := lw.open(ctx, cfg.scale, cfg.seed, false)
	tr.end(phase)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	log.opened(sess, false)

	d := cfg.window()
	phase = tr.begin(root, "untraced window")
	plain, err := sess.measure(ctx, d, true, nil, 0)
	tr.end(phase)
	if err != nil {
		sess.close()
		return nil, err
	}
	lw.endToEnd(ctx, r, sess, plain)
	log.closed(sess)
	err = log.repeat(r, tr, root, func() (opened, error) { return lw.open(ctx, cfg.scale, cfg.seed, false) })
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		r.finish()
		return r, nil
	}

	// Traced window: a fresh session with engine trace sampling on.
	phase = tr.begin(root, "traced window")
	traced, err := lw.open(ctx, cfg.scale, cfg.seed, true)
	if err != nil {
		return nil, fmt.Errorf("open traced: %w", err)
	}
	log.opened(traced, true)
	tw, err := traced.measure(ctx, d, true, tr, phase)
	if err != nil {
		traced.close()
		return nil, err
	}
	tr.end(phase)
	engineLayerCounts(r, tw, traced)
	if !lw.convergence {
		// tcp-mesh keeps its convergence per layer.
		share, err := traced.convergedShare(ctx, 1e-3*traced.valueRange)
		if err != nil {
			traced.close()
			return nil, err
		}
		r.set("membership.converged_share", share)
		r.set("membership.rho_hat_mesh", orZero(rhoHat(tw.traj, 25)))
	}
	r.set("engine.trace_overhead_share", tw.cpuNsPerExchange()/plain.cpuNsPerExchange()-1)
	log.closed(traced)
	log.reportLayer(r)

	p := runProbes(ctx, tr, root, cfg, shapesFor(lw.name, tw))
	p.report(r)
	r.set("engine.saturated_exchanges_per_s", saturatedRate(ctx, cfg))
	r.Budget = p.budget(lw.name, tw, plain.cpuNsPerExchange())
	r.set("engine.unattributed_ns", r.Budget.UnattributedN)
	r.finish()
	return r, nil
}

// endToEnd fills the end-to-end metrics and checks from the untraced
// window.
func (lw liveWorkload) endToEnd(ctx context.Context, r *result, sess *liveSession, w *window) {
	r.setN("cpu_ns_per_exchange", w.cpuNsPerExchange(), int(w.stats.Replies), 0)
	if len(w.subNs) > 0 {
		fmt.Fprintf(logOut, "  %s: cpu_ns_per_exchange median of %d one-second sub-windows %.1f ns (whole window %.1f ns)\n",
			lw.name, len(w.subNs), median(w.subNs), w.cpuNsPerExchange())
	}
	r.set("completion", w.completion())
	r.set("peak_rss_mb", peakRSSMB())
	if lw.convergence {
		rho, eps := rhoHat(w.traj, 25), cyclesToEps(w.traj, 1e-6)
		r.set("rho_hat", rho)
		r.set("cycles_to_eps", eps)
		r.check("convergence measurable", !math.IsNaN(rho) && !math.IsNaN(eps),
			"ρ̂=%.4f cycles_to_eps=%.2f from %d trajectory samples", rho, eps, len(w.traj))
	}
	// A missed reply deadline is not a failed operation: it is the
	// loss the protocol is built to ride out, the exchange is simply
	// made again next cycle, and completion (ΔReplies/ΔInitiated)
	// already carries it with a bound of its own. Counted as failures,
	// the timeouts of a single 60 ms host stall (≈ 16 000 on tcp-mesh,
	// whose TCP inbox holds 6 ms of traffic) made failed non-zero in
	// three runs of ten with nothing wrong with the program.
	r.ops(int64(w.stats.Initiated), int64(w.stats.SendErrors))

	// Mass conservation: whatever the overlay does, the mean of the
	// estimates must stay the true mean. Convergence is a metric, not a
	// gate (tcp-mesh does not converge today).
	mean, _, err := sess.moments(ctx)
	tol := 1e-3 * sess.valueRange
	r.check("mass conservation", err == nil && math.Abs(mean-sess.trueMean) <= tol,
		"mean of estimates %.6f, true mean %.6f, tolerance %.3g (err %v)", mean, sess.trueMean, tol, err)
	r.check("exchanges completed", w.stats.Replies > 0, "%d replies of %d initiated", w.stats.Replies, w.stats.Initiated)
}

// engineLayerCounts reads the engine, transport and membership layers'
// own counters over the traced window.
func engineLayerCounts(r *result, w *window, sess *liveSession) {
	delta := func(name string) float64 { return w.last.sum(name) - w.first.sum(name) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	completed := delta("repro_engine_exchanges_completed_total")
	r.set("engine.initiated", delta("repro_engine_exchanges_initiated_total"))
	r.set("engine.completed", completed)
	r.set("engine.nacked", delta("repro_engine_exchanges_nacked_total"))
	r.set("engine.timeouts", delta("repro_engine_exchange_deadline_missed_total"))
	r.set("engine.late_replies", delta("repro_engine_late_replies_absorbed_total"))
	r.set("engine.stale_dropped", delta("repro_engine_messages_stale_dropped_total"))
	r.set("engine.send_errors", delta("repro_engine_send_errors_total"))
	rounds := delta("repro_engine_rounds_total")
	r.set("engine.rounds", rounds)
	r.set("engine.rounds_stolen", delta("repro_engine_rounds_stolen_total"))
	r.set("engine.exchanges_per_round", ratio(completed, rounds))
	r.set("engine.shard_lag_ms_max", w.lagMs)
	r.set("engine.inbox_depth_max", w.inbox)
	r.set("engine.pool_miss_ratio", ratio(delta("repro_pool_misses_total"), delta("repro_pool_gets_total")))
	r.set("engine.allocs_per_exchange", ratio(float64(w.mallocs), completed))

	var lat timing
	for _, sys := range sess.systems {
		for _, rec := range sys.Trace(0) {
			if rec.Outcome == repro.TraceCompleted {
				lat.add(rec.Latency() * 1e6)
			}
		}
	}
	r.setTiming("engine.exchange_latency_us_p50", "engine.exchange_latency_us_p99", &lat, 1)

	frames := delta("repro_transport_batch_frames_total")
	r.set("transport.frames", frames)
	r.set("transport.msgs_per_frame", ratio(delta("repro_transport_batch_messages_total"), frames))
	r.set("transport.tcp_bytes_per_exchange", ratio(delta("repro_transport_tcp_bytes_sent_total"), completed))
	r.set("transport.tcp_dials", w.last.sum("repro_transport_tcp_dials_total"))
	r.set("transport.send_failures", delta("repro_transport_send_failures_total"))
	r.set("transport.inbox_dropped",
		delta("repro_transport_fabric_inbox_dropped_total")+delta("repro_transport_tcp_inbox_dropped_total"))

	r.set("membership.observed", delta("repro_membership_observed_total"))
	r.set("membership.forgotten", delta("repro_membership_forgotten_total"))
	r.set("membership.digest_dropped", delta("repro_membership_digest_dropped_total"))
	r.set("membership.view_entries_mean", w.last.sum("repro_membership_view_entries")/float64(sess.nodes))
}

func orZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
