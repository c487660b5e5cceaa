package repro

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// convergedTol is the variance threshold below which Telemetry reports
// the system converged: at 1e-9 every node's approximation agrees with
// the mean to ~5 significant digits for O(1)-scale values.
const convergedTol = 1e-9

// varianceFloor bounds the convergence-factor estimate away from
// floating-point noise: once variance falls below it, successive ratios
// measure rounding, not the protocol, so ρ̂ accumulation stops.
const varianceFloor = 1e-20

// Telemetry is one consolidated runtime health snapshot: the watched
// field's cross-node reduction, the observed per-cycle convergence
// factor ρ̂ (the paper predicts 1/(2√e) ≈ 0.3033 for the constant-wait
// protocol), exchange-completion accounting and scheduler balance.
// Taken with System.Telemetry or streamed with System.WatchTelemetry.
type Telemetry struct {
	// Field names the tracked schema field (the schema's first field).
	Field string
	// Seq is the convergence tracker's snapshot index; -1 when the
	// tracker has not ticked yet (the snapshot was taken synchronously).
	Seq int
	// Time is when the convergence fields were computed.
	Time time.Time
	// Nodes is how many locally hosted node states were folded; Workers
	// is the scheduler's shard count.
	Nodes, Workers int
	// Mean, Variance, Min and Max reduce the tracked field across nodes.
	Mean, Variance, Min, Max float64
	// Rho is the most recent per-cycle variance reduction factor
	// σ²ᵢ₊₁/σ²ᵢ, normalized to one executed protocol cycle (exchanges
	// initiated per hosted node) so neither ticker drift nor CPU
	// starvation can skew it; RhoGeo is the geometric mean over the
	// RhoCycles protocol cycles observed so far. Both are NaN until
	// two informative snapshots exist, and freeze once variance
	// reaches floating-point noise.
	Rho, RhoGeo float64
	RhoCycles   float64
	// TrueMean is the live mean of the hosted nodes' local attribute
	// values — the target the aggregate should track; TrackingError is
	// |Mean − TrueMean|. NaN on TCP shapes, where remote peers hold part
	// of the truth.
	TrueMean, TrackingError float64
	// AdversaryNodes is how many hosted nodes currently act as Byzantine
	// adversaries (System.SetAdversaries); RobustRejected is the
	// cumulative count of exchange halves the robust trim gate refused.
	AdversaryNodes int
	RobustRejected uint64
	// Corruption is the adversary-induced estimate error: TrackingError
	// while adversaries are active, NaN otherwise (so dashboards can
	// distinguish attack-induced drift from ordinary tracking noise).
	Corruption float64
	// Converged reports Variance ≤ 1e-9.
	Converged bool
	// Stats sums every hosted node's protocol counters; Completion is
	// Replies/Initiated ∈ [0,1] (NaN before the first exchange).
	Stats      NodeStats
	Completion float64
	// Steals counts scheduler rounds run by a non-owner worker;
	// ShardInitiated is each shard's initiated-exchange counter, the
	// per-worker balance view.
	Steals         uint64
	ShardInitiated []uint64
	// ServeStreams is the service layer's live SSE stream count and
	// ServeDropped its cumulative latest-wins drops summed over
	// subscribers; both zero unless serve.New attached to the system
	// (System.SetServeStats).
	ServeStreams int
	ServeDropped uint64
}

// teleSub is one WatchTelemetry subscriber: a one-slot latest-wins
// channel, like Watch's.
type teleSub struct {
	ch  chan Telemetry
	ctx context.Context
}

// telemetryState is the system's convergence tracker. It starts lazily
// (first Telemetry, WatchTelemetry or ops-server use): one internal
// Watch subscription feeds ticks that fold the variance trajectory into
// ρ̂ and fan out to WatchTelemetry subscribers. Systems that never ask
// for telemetry never pay for it.
type telemetryState struct {
	once sync.Once

	mu       sync.Mutex
	cur      Telemetry // last tick (mu)
	have     bool      // cur holds a real tick
	prevVar  float64
	prevInit uint64  // Stats.Initiated at the previous tick
	logSum   float64 // Σ ln ρ per protocol cycle, for the geometric mean
	cycles   float64 // informative protocol cycles folded into logSum
	subs     []*teleSub

	// Scrape-time mirrors of the convergence gauges, stored as float64
	// bits (NaN before the first informative tick).
	rhoBits, rhoGeoBits, varBits, trackBits atomic.Uint64
}

// storeNaN initializes the gauge mirrors to NaN so scrapes before the
// tracker's first tick report "unknown", not a fake zero.
func (t *telemetryState) storeNaN() {
	nan := math.Float64bits(math.NaN())
	t.rhoBits.Store(nan)
	t.rhoGeoBits.Store(nan)
	t.varBits.Store(nan)
	t.trackBits.Store(nan)
}

// trackedField returns the schema field the convergence tracker watches.
func (s *System) trackedField() string { return s.schema.FieldNames()[0] }

// trueMean folds the hosted nodes' local attribute values — the truth
// the aggregate should track. ok is false on TCP shapes, where remote
// peers hold part of the population and the local fold is not the
// network mean.
func (s *System) trueMean() (mean float64, ok bool) {
	if s.rt.Fabric() == nil {
		return math.NaN(), false
	}
	var n int
	var sum float64
	s.rt.ReduceValues(func(v float64) { n++; sum += v })
	if n == 0 {
		return math.NaN(), false
	}
	return sum / float64(n), true
}

// ensureTelemetry starts the convergence tracker once. The tracker is
// an ordinary Watch subscriber: it shares the field's fan-out hub with
// user watchers, ends when the system closes, and its channel closing
// closes every WatchTelemetry subscriber.
func (s *System) ensureTelemetry() {
	s.tele.once.Do(func() {
		ch, err := s.Watch(context.Background(), s.trackedField())
		if err != nil {
			// The schema always has a first field; reaching here means the
			// system is closing. Leave the tracker unstarted.
			return
		}
		go s.trackConvergence(ch)
	})
}

// trackConvergence is the tracker goroutine: fold each per-cycle
// estimate into the convergence state, publish the gauge mirrors, fan
// out to WatchTelemetry subscribers.
func (s *System) trackConvergence(ch <-chan Estimate) {
	t := &s.tele
	for est := range ch {
		tm, ok := s.trueMean()
		tel := s.buildTelemetry(est.Seq, est.Time, est.Nodes,
			est.Mean, est.Variance, est.Min, est.Max)

		t.mu.Lock()
		// ρ̂ fold: the ratio of successive informative variances,
		// normalized by the protocol cycles actually executed between
		// ticks — exchanges initiated per hosted node, the paper's own
		// cycle unit. Not the tick count (a ticker falling behind under
		// load spans several cycles per tick) and not wall-clock Δt
		// units (a CPU-starved runtime executes fewer cycles per wall
		// second; both would misattribute the variance drop). Per-tick
		// skew between the reduce snapshot and this counter read
		// telescopes away in the RhoGeo aggregate.
		dc := float64(tel.Stats.Initiated-t.prevInit) / float64(s.Size())
		if t.have && dc > 0 &&
			t.prevVar > varianceFloor && est.Variance > varianceFloor {
			logRho := math.Log(est.Variance/t.prevVar) / dc
			tel.Rho = math.Exp(logRho)
			t.logSum += logRho * dc
			t.cycles += dc
		} else if t.have {
			tel.Rho = t.cur.Rho // freeze at the noise floor
		} else {
			tel.Rho = math.NaN()
		}
		if t.cycles > 0 {
			tel.RhoGeo = math.Exp(t.logSum / t.cycles)
		} else {
			tel.RhoGeo = math.NaN()
		}
		tel.RhoCycles = t.cycles
		if ok {
			tel.TrueMean = tm
			tel.TrackingError = math.Abs(est.Mean - tm)
			if tel.AdversaryNodes > 0 {
				tel.Corruption = tel.TrackingError
			}
		} else {
			tel.TrueMean = math.NaN()
			tel.TrackingError = math.NaN()
		}
		t.prevVar = est.Variance
		t.prevInit = tel.Stats.Initiated
		t.cur = tel
		t.have = true
		t.rhoBits.Store(math.Float64bits(tel.Rho))
		t.rhoGeoBits.Store(math.Float64bits(tel.RhoGeo))
		t.varBits.Store(math.Float64bits(tel.Variance))
		t.trackBits.Store(math.Float64bits(tel.TrackingError))

		// Fan out latest-wins, pruning cancelled subscribers.
		live := t.subs[:0]
		for _, sub := range t.subs {
			if sub.ctx.Err() != nil {
				close(sub.ch)
				continue
			}
			live = append(live, sub)
			select {
			case sub.ch <- tel:
			default:
				select {
				case <-sub.ch:
				default:
				}
				select {
				case sub.ch <- tel:
				default:
				}
			}
		}
		for i := len(live); i < len(t.subs); i++ {
			t.subs[i] = nil
		}
		t.subs = live
		t.mu.Unlock()
	}
	// System closed: release the subscribers.
	t.mu.Lock()
	for _, sub := range t.subs {
		close(sub.ch)
	}
	t.subs = nil
	t.mu.Unlock()
}

// buildTelemetry assembles the cheap, always-fresh portion of a
// snapshot around the given convergence fields.
func (s *System) buildTelemetry(seq int, at time.Time, nodes int,
	mean, variance, min, max float64) Telemetry {
	st := s.Stats()
	tel := Telemetry{
		Field:    s.trackedField(),
		Seq:      seq,
		Time:     at,
		Nodes:    nodes,
		Workers:  s.Workers(),
		Mean:     mean,
		Variance: variance,
		Min:      min,
		Max:      max,
		Stats:    st,
	}
	tel.Converged = variance <= convergedTol
	tel.AdversaryNodes = s.AdversaryCount()
	tel.RobustRejected = s.RobustRejected()
	tel.Corruption = math.NaN()
	if st.Initiated > 0 {
		tel.Completion = float64(st.Replies) / float64(st.Initiated)
	} else {
		tel.Completion = math.NaN()
	}
	tel.Steals = s.rt.Steals()
	tel.ShardInitiated = s.rt.ShardInitiated()
	if fn := s.serveStats.Load(); fn != nil {
		tel.ServeStreams, tel.ServeDropped = (*fn)()
	}
	return tel
}

// Telemetry returns a consolidated health snapshot. Counter and balance
// fields are read fresh; convergence fields (ρ̂, tracking error) come
// from the tracker's most recent per-cycle tick. The first call starts
// the tracker, so early calls — before its first tick — fall back to a
// synchronous reduction with Seq −1 and NaN convergence factors.
func (s *System) Telemetry() Telemetry {
	s.ensureTelemetry()
	s.tele.mu.Lock()
	if s.tele.have {
		cur := s.tele.cur
		s.tele.mu.Unlock()
		// Refresh the cheap counters around the tracked convergence state.
		tel := s.buildTelemetry(cur.Seq, cur.Time, cur.Nodes,
			cur.Mean, cur.Variance, cur.Min, cur.Max)
		tel.Rho = cur.Rho
		tel.RhoGeo = cur.RhoGeo
		tel.RhoCycles = cur.RhoCycles
		tel.TrueMean = cur.TrueMean
		tel.TrackingError = cur.TrackingError
		if tel.AdversaryNodes > 0 {
			tel.Corruption = tel.TrackingError
		}
		return tel
	}
	s.tele.mu.Unlock()

	// No tick yet: reduce synchronously for a baseline snapshot.
	est, err := s.snapshot(context.Background(), s.trackedField(), 0)
	if err != nil {
		est = Estimate{Mean: math.NaN(), Variance: math.NaN(),
			Min: math.NaN(), Max: math.NaN(), Time: time.Now()}
	}
	tel := s.buildTelemetry(-1, est.Time, est.Nodes,
		est.Mean, est.Variance, est.Min, est.Max)
	tel.Rho = math.NaN()
	tel.RhoGeo = math.NaN()
	tel.TrueMean = math.NaN()
	tel.TrackingError = math.NaN()
	if tm, ok := s.trueMean(); ok {
		tel.TrueMean = tm
		tel.TrackingError = math.Abs(est.Mean - tm)
		if tel.AdversaryNodes > 0 {
			tel.Corruption = tel.TrackingError
		}
	}
	return tel
}

// WatchTelemetry streams one Telemetry per cycle (the convergence
// tracker's tick rate) until ctx is cancelled or the system closes,
// then closes the channel. Delivery is latest-wins, like Watch.
func (s *System) WatchTelemetry(ctx context.Context) <-chan Telemetry {
	s.ensureTelemetry()
	sub := &teleSub{ch: make(chan Telemetry, 1), ctx: ctx}
	s.tele.mu.Lock()
	s.tele.subs = append(s.tele.subs, sub)
	s.tele.mu.Unlock()
	return sub.ch
}

// Trace returns up to max recent trace-sampled exchanges across all
// shards, oldest first (max ≤ 0 returns everything retained). Nil
// unless WithTraceSampling enabled sampling.
func (s *System) Trace(max int) []TraceRecord { return s.rt.Trace(max) }

// registerSystemMetrics adds the system-level series: uptime, watch
// reduction count and the convergence gauges. The runtime registered
// its own engine, transport and membership series.
func (s *System) registerSystemMetrics() {
	reg := s.metrics
	s.tele.storeNaN()
	reg.GaugeFunc("repro_system_uptime_seconds", "Seconds since Open.",
		func() float64 { return time.Since(s.openedAt).Seconds() })
	reg.CounterFunc("repro_watch_reduces_total",
		"Cross-node field reductions performed (Watch hubs, Query, Reduce).",
		s.reduceCount.Load)
	for _, g := range []struct {
		name, help string
		bits       *atomic.Uint64
	}{
		{"repro_convergence_rho", "Observed per-cycle variance reduction factor ρ̂ (paper: 1/(2√e) ≈ 0.3033; NaN until the tracker ticks twice).", &s.tele.rhoBits},
		{"repro_convergence_rho_geo", "Geometric mean of ρ̂ over all informative cycles.", &s.tele.rhoGeoBits},
		{"repro_convergence_variance", "Cross-node variance of the tracked field at the last tick.", &s.tele.varBits},
		{"repro_convergence_tracking_error", "|estimate − true mean| at the last tick (NaN on TCP shapes).", &s.tele.trackBits},
	} {
		bits := g.bits
		reg.GaugeFunc(g.name, g.help, func() float64 {
			return math.Float64frombits(bits.Load())
		})
	}
}
