package engine

import (
	"context"
	"math"
	"math/big"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/membership"
	"repro/internal/robust"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/xrand"
)

// newTCPRuntime builds a single-shard heap runtime behind a real
// loopback socket with gossip membership bootstrapped the way
// repro.Open(WithTCP) does it — the remote seeds plus the next local
// sibling — so every exchange between two hosted nodes is eligible for
// in-round local delivery. mut adjusts the config before construction.
func newTCPRuntime(tb testing.TB, size int, seeds []string, mut func(*RuntimeConfig)) (*Runtime, *transport.TCPEndpoint) {
	tb.Helper()
	ep, err := transport.NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		tb.Skipf("TCP unavailable in this environment: %v", err)
	}
	cfg := RuntimeConfig{
		Size:         size,
		Schema:       core.AverageSchema(),
		Value:        func(i int) float64 { return float64(i % 2) },
		CycleLength:  2 * time.Millisecond,
		ReplyTimeout: 200 * time.Millisecond,
		Endpoints:    []transport.Endpoint{ep},
		Seed:         11,
		Samplers: func(i int, self string, local []string) (membership.Sampler, error) {
			boot := append([]string{}, seeds...)
			if sib := local[(i+1)%len(local)]; sib != self {
				boot = append(boot, sib)
			}
			return membership.NewGossipSampler(self, 8, boot)
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := NewRuntime(cfg)
	if err != nil {
		_ = ep.Close()
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Stop)
	return rt, ep
}

// localDelivered sums the shards' in-round delivery counters.
func localDelivered(rt *Runtime) uint64 {
	var t uint64
	for _, s := range rt.shards {
		t += s.pub.localDelivered.Load()
	}
	return t
}

// awaitSpread polls until every hosted node's estimate lies within tol
// of want, failing the test at the deadline.
func awaitSpread(t *testing.T, rt *Runtime, want, tol float64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		vals, err := rt.Snapshot("avg")
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for _, v := range vals {
			worst = math.Max(worst, math.Abs(v-want))
		}
		if worst <= tol {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("estimates still %g from %g after %v (want ≤ %g); stats %+v", worst, want, timeout, tol, rt.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPRuntimeLocalExchangesBypassSocket is the tentpole's acceptance
// test: a socket-backed system whose nodes all live in one shard never
// asks the socket to talk to itself. Every exchange starts and
// completes inside one hold of the round lock, so (a) an observer —
// who takes that lock — can never catch an exchange half applied: with
// 0/1 inputs every estimate is a dyadic rational that float64 holds
// exactly for the first few dozen halvings, and over that stretch the
// sum of estimates must equal N/2 to the last bit at every snapshot;
// (b) nobody is ever found busy, so there are no nacks and no
// timeouts; (c) the endpoint dials nothing and writes no byte while
// the system converges. Under the complete (directory) overlay the
// fixed point is the true mean to within rounding; gossip membership's
// ring-local views mix too slowly for that bar (bench/README.md,
// "Known baseline behaviour"), so there the run only has to conserve
// the mean and shrink the variance.
func TestTCPRuntimeLocalExchangesBypassSocket(t *testing.T) {
	const n = 256
	for _, tc := range []struct {
		name      string
		directory bool
	}{{"directory", true}, {"gossip", false}} {
		t.Run(tc.name, func(t *testing.T) {
			rt, ep := newTCPRuntime(t, n, nil, func(c *RuntimeConfig) {
				if tc.directory {
					c.Samplers = nil
				}
			})
			rt.Start(context.Background())

			want := new(big.Float).SetPrec(512).SetFloat64(n / 2)
			// ≲ 8 halvings deep per cycle: far inside float64's 52 bits.
			exactUntil := time.Now().Add(6 * rt.cfg.CycleLength)
			for snaps := 0; time.Now().Before(exactUntil); snaps++ {
				vals, err := rt.Snapshot("avg")
				if err != nil {
					t.Fatal(err)
				}
				sum := new(big.Float).SetPrec(512)
				for _, v := range vals {
					sum.Add(sum, new(big.Float).SetPrec(512).SetFloat64(v))
				}
				if sum.Cmp(want) != 0 {
					t.Fatalf("snapshot %d: Σ estimates = %s, want exactly %s — an exchange was observed half applied",
						snaps, sum.Text('g', 40), want.Text('g', 40))
				}
				time.Sleep(200 * time.Microsecond)
			}

			if tc.directory {
				// Pairwise float averaging reaches consensus only through
				// rounding, so the fixed point is the true mean to within
				// a few ulps, not necessarily to the bit.
				awaitSpread(t, rt, 0.5, 1e-12, 30*time.Second)
			} else {
				deadline := time.Now().Add(30 * time.Second)
				for {
					var run stats.Running
					if err := rt.ReduceField("avg", run.Add); err != nil {
						t.Fatal(err)
					}
					if math.Abs(run.Mean()-0.5) > 1e-12 {
						t.Fatalf("mean of estimates drifted to %.17g", run.Mean())
					}
					if run.Variance() < 0.25/100 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("variance stuck at %g", run.Variance())
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			rt.Stop() // quiesce, so the counters below are final
			st := rt.Stats()
			if st.Replies == 0 || st.Replies != st.Initiated {
				t.Errorf("completed %d of %d initiated exchanges, want all of them", st.Replies, st.Initiated)
			}
			if st.PeerBusy != 0 || st.BusyDropped != 0 || st.Timeouts != 0 || st.SendErrors != 0 {
				t.Errorf("lossless single-shard run with constant waits saw nacks/timeouts/send errors: %+v", st)
			}
			if got := localDelivered(rt); got != 2*st.Replies {
				t.Errorf("local deliveries = %d, want a push and a reply per completed exchange (%d)", got, 2*st.Replies)
			}
			if ep.BytesSent() != 0 || ep.Dials() != 0 || ep.BytesReceived() != 0 {
				t.Errorf("socket carried local traffic: %d B sent, %d B received, %d dials — want none",
					ep.BytesSent(), ep.BytesReceived(), ep.Dials())
			}
		})
	}
}

// TestTCPRuntimeMeshStillCrossesHosts: local delivery must not swallow
// traffic meant for another process. Two socket-backed runtimes, the
// second seeded with the first's bare listen address, must exchange
// over the wire (both endpoints write bytes) while the combined mass is
// conserved within the benchmark's tolerance (10⁻³ of the value range).
func TestTCPRuntimeMeshStillCrossesHosts(t *testing.T) {
	const n = 64
	a, epA := newTCPRuntime(t, n, nil, func(c *RuntimeConfig) {
		c.Value = func(int) float64 { return 0 }
	})
	b, epB := newTCPRuntime(t, n, []string{epA.Addr()}, func(c *RuntimeConfig) {
		c.Value = func(int) float64 { return 100 }
		c.Seed = 12
	})
	a.Start(context.Background())
	b.Start(context.Background())

	deadline := time.Now().Add(20 * time.Second)
	for {
		va, _ := a.Snapshot("avg")
		vb, _ := b.Snapshot("avg")
		// One cross-host exchange moves 50/n into a host's mean. The
		// bar stays low on purpose: once the views fill with local
		// sub-addresses cross-host traffic all but stops (bench/README.md,
		// "Known baseline behaviour").
		mixed := stats.Mean(va) > 0.5 && stats.Mean(vb) < 99.5
		if mixed && epA.BytesSent() > 0 && epB.BytesSent() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hosts never mixed over the wire: mean a=%g b=%g, bytes sent a=%d b=%d",
				stats.Mean(va), stats.Mean(vb), epA.BytesSent(), epB.BytesSent())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if localDelivered(a) == 0 || localDelivered(b) == 0 {
		t.Errorf("no local deliveries beside the cross-host traffic: a=%d b=%d", localDelivered(a), localDelivered(b))
	}
	// Audit the mass on the running mesh. A cross-host exchange caught
	// between its two halves (or between the two snapshots) shows as a
	// transient deviation that the next poll no longer has; a leak
	// persists, and fails every poll.
	var mean float64
	for audit := time.Now().Add(5 * time.Second); time.Now().Before(audit); time.Sleep(2 * time.Millisecond) {
		va, _ := a.Snapshot("avg")
		vb, _ := b.Snapshot("avg")
		mean = (stats.Mean(va) + stats.Mean(vb)) / 2
		if math.Abs(mean-50) <= 1e-3*100 {
			return
		}
	}
	t.Fatalf("combined mean %g, want 50 ± 0.1 (mass leaked across the local/remote split)", mean)
}

// TestTCPRuntimeLocalFailAndRevive: a failed node is silent on the
// local path exactly as on the wire — pushes to it are swallowed, the
// initiator's reply deadline is the only reaper — and a revived node
// rejoins as a fresh joiner.
func TestTCPRuntimeLocalFailAndRevive(t *testing.T) {
	const n, victim = 16, 5
	rt, ep := newTCPRuntime(t, n, nil, func(c *RuntimeConfig) {
		c.ReplyTimeout = 10 * time.Millisecond
		// A static ring keeps the victim sampled after its neighbours'
		// gossip views would have forgotten it.
		c.Samplers = func(i int, self string, local []string) (membership.Sampler, error) {
			return membership.NewStatic([]string{local[(i+1)%len(local)], local[(i+len(local)-1)%len(local)]})
		}
	})
	rt.Start(context.Background())
	if !rt.FailNode(victim) {
		t.Fatal("FailNode reported no change")
	}
	before := rt.NodeStats(victim)
	deadline := time.Now().Add(10 * time.Second)
	for rt.Stats().Timeouts < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("pushes to a failed local node never timed out: %+v", rt.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	after := rt.NodeStats(victim)
	if after.Served != before.Served || after.Initiated != before.Initiated || after.BusyDropped != before.BusyDropped {
		t.Fatalf("failed node kept working: before %+v after %+v", before, after)
	}
	if !rt.ReviveNode(victim) {
		t.Fatal("ReviveNode reported no change")
	}
	deadline = time.Now().Add(10 * time.Second)
	for rt.NodeStats(victim).Served == after.Served || rt.NodeStats(victim).Replies == after.Replies {
		if time.Now().After(deadline) {
			t.Fatalf("revived node never served and completed an exchange: %+v", rt.NodeStats(victim))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ep.BytesSent() != 0 {
		t.Errorf("socket carried %d B of purely local traffic", ep.BytesSent())
	}
}

// TestTCPRuntimeLocalInjectValueConservesMass races InjectValue (the
// System.SetValue backend) against local exchanges. A local exchange
// completes inside one lock hold, so every injection lands between two
// whole exchanges: when the writers are done the estimates must carry
// exactly the mass of the final values (convergence is not asked for —
// gossip views mix slowly — conservation is). The writers keep injecting
// past their quota, under a deadline, until an exchange has completed
// beside them: the quota alone can run out before the first one does.
func TestTCPRuntimeLocalInjectValueConservesMass(t *testing.T) {
	const n, writers, writes = 64, 4, 400
	rt, ep := newTCPRuntime(t, n, nil, func(c *RuntimeConfig) {
		c.CycleLength = time.Millisecond
	})
	rt.Start(context.Background())
	replies0 := rt.Stats().Replies
	deadline := time.Now().Add(10 * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(100 + w))
			for i := 0; i < writes || rt.Stats().Replies == replies0 && time.Now().Before(deadline); i++ {
				// Writers own disjoint node sets, so each node's final
				// value is its writer's last write.
				rt.InjectValue(w+writers*rng.Intn(n/writers), 0, float64(rng.Intn(1000)))
			}
		}(w)
	}
	wg.Wait()
	var truth, est stats.Running
	rt.ReduceValues(truth.Add)
	if err := rt.ReduceField("avg", est.Add); err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean()-truth.Mean()) > 1e-9*1000 {
		t.Fatalf("mean of estimates %.12g, mean of values %.12g: an injection raced a local exchange", est.Mean(), truth.Mean())
	}
	if rt.Stats().Replies == 0 {
		t.Fatal("no exchange completed beside the injections")
	}
	if ep.BytesSent() != 0 {
		t.Errorf("socket carried %d B of purely local traffic", ep.BytesSent())
	}
}

// TestTCPRuntimeLocalRobustRejectIsConservingNack: with the partner on
// the local path, a passive-side trim reject must still answer with a
// nack so neither half merges. One node holds an outlier far outside
// every honest node's acceptance band; while the gate is installed the
// outlier can neither spread nor absorb, so the honest nodes' mass is
// exactly what it was.
func TestTCPRuntimeLocalRobustRejectIsConservingNack(t *testing.T) {
	const n, outlier = 32, 7
	rt, ep := newTCPRuntime(t, n, nil, func(c *RuntimeConfig) {
		c.Value = func(i int) float64 {
			if i == outlier {
				return 1e6
			}
			return float64(i % 2)
		}
	})
	// Seed the bands from the honest spread only, as Runtime.SetRobust
	// does for the population it is told is honest.
	if err := rt.SetAdversaries(sim.AdvSelectiveDrop, []int{outlier}, 0, 0); err != nil {
		t.Fatal(err)
	}
	rt.SetRobust(robust.Policy{Trim: true, TrimK: 8})
	if err := rt.SetAdversaries(sim.AdvSelectiveDrop, nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background())

	deadline := time.Now().Add(10 * time.Second)
	for rt.RobustRejected() < 20 || rt.Stats().PeerBusy == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("robust gate never rejected on the local path: rejected=%d stats=%+v", rt.RobustRejected(), rt.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	rt.Stop()
	var honest stats.Running
	vals, _ := rt.Snapshot("avg")
	for i, v := range vals {
		if i != outlier {
			honest.Add(v)
		}
	}
	if vals[outlier] != 1e6 {
		t.Errorf("outlier moved to %g: a rejected exchange merged on one side", vals[outlier])
	}
	// The outlier's index is odd, so the honest nodes hold n/2 − 1 ones.
	if want := float64(n/2-1) / float64(n-1); math.Abs(honest.Mean()-want) > 1e-9 {
		t.Errorf("honest mean %g, want %g: a rejected exchange leaked mass", honest.Mean(), want)
	}
	if ep.BytesSent() != 0 {
		t.Errorf("socket carried %d B of purely local traffic", ep.BytesSent())
	}
}

// TestTCPRuntimeLocalAdversaryAnswersButNeverAdopts: a Byzantine
// responder on the local path replies with its pinned state and
// discards every merge, as it does over the wire.
func TestTCPRuntimeLocalAdversaryAnswersButNeverAdopts(t *testing.T) {
	const n, adv = 16, 3
	rt, _ := newTCPRuntime(t, n, nil, nil)
	if err := rt.SetAdversaries(sim.AdvExtreme, []int{adv}, 1000, 0); err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background())
	deadline := time.Now().Add(10 * time.Second)
	for {
		var honest stats.Running
		if err := rt.ReduceField("avg", honest.Add); err != nil {
			t.Fatal(err)
		}
		if honest.Mean() > 100 && rt.NodeStats(adv).Served > 0 && rt.NodeStats(adv).Replies > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("poison never propagated over the local path: honest mean %g, adversary stats %+v",
				honest.Mean(), rt.NodeStats(adv))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := rt.NodeState(adv)[0]; got != 1000 {
		t.Fatalf("adversary state %g, want pinned 1000", got)
	}
}

// TestTCPRuntimeLocalEpochRestart: epoch identifiers spread, and stale
// messages are judged, on the local path as on the wire — after the
// boundary every node restarts from its new local value.
func TestTCPRuntimeLocalEpochRestart(t *testing.T) {
	clock, err := epoch.NewClock(time.Now(), 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rt, ep := newTCPRuntime(t, 16, nil, func(c *RuntimeConfig) {
		c.Value = func(int) float64 { return 1 }
		c.Clock = clock
	})
	rt.Start(context.Background())
	for i := 0; i < rt.Size(); i++ {
		rt.SetValue(i, 5)
	}
	awaitSpread(t, rt, 5, 0.01, 10*time.Second)
	if rt.Stats().EpochSwitches < uint64(rt.Size()) {
		t.Fatalf("only %d epoch restarts across %d nodes", rt.Stats().EpochSwitches, rt.Size())
	}
	if ep.BytesSent() != 0 {
		t.Errorf("socket carried %d B of purely local traffic", ep.BytesSent())
	}
}

// TestTCPRuntimeLocalExchangesAreTraced: the sampling gate, the trace
// ring and the latency clock see a local exchange like any other — a
// completed record with a local destination index and a latency that
// is the few hundred nanoseconds the exchange really took.
func TestTCPRuntimeLocalExchangesAreTraced(t *testing.T) {
	rt, _ := newTCPRuntime(t, 32, nil, func(c *RuntimeConfig) {
		c.TraceSample = 4
	})
	rt.Start(context.Background())
	deadline := time.Now().Add(10 * time.Second)
	for len(rt.Trace(0)) < 16 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d trace records of local exchanges", len(rt.Trace(0)))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, rec := range rt.Trace(0) {
		if rec.Outcome != TraceCompleted || rec.Dst < 0 || int(rec.Dst) >= rt.Size() || rec.Dst == rec.Src {
			t.Fatalf("unexpected record for a local exchange: %v", rec)
		}
		if lat := rec.Latency(); lat < 0 || lat > 0.1 {
			t.Fatalf("local exchange latency %gs, want ≈ 0: %v", lat, rec)
		}
	}
}
