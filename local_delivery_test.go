package repro

import (
	"context"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"
)

// tcpSystem opens a multi-node WithTCP system (heap runtime, one
// socket-backed shard, gossip membership) on an ephemeral loopback port.
func tcpSystem(t *testing.T, n int, extra ...Option) *System {
	t.Helper()
	opts := append([]Option{
		WithTCP("127.0.0.1:0"),
		WithSize(n),
		WithWorkers(1),
		WithValues(func(i int) float64 { return float64(i % 2) }),
		WithCycleLength(2 * time.Millisecond),
		WithReplyTimeout(200 * time.Millisecond),
		WithSeed(5),
	}, extra...)
	sys, err := Open(opts...)
	if err != nil {
		t.Skipf("TCP unavailable in this environment: %v", err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// scrapeMust reads one series of the system's registry.
func scrapeMust(t *testing.T, sys *System, series string) float64 {
	t.Helper()
	v, ok := scrapeValue(sys, series)
	if !ok {
		t.Fatalf("series %s not exposed", series)
	}
	return v
}

// TestOpenTCPSystemNeverDialsItself is the front-door view of in-round
// local delivery: a single WithTCP system's exchanges are all between
// nodes of its own shard, so it converges with a silent socket — no
// dial, no byte — no busy-nack and no missed deadline, while the
// operator can read the in-process share off the registry and the
// trace ring shows the local exchanges.
func TestOpenTCPSystemNeverDialsItself(t *testing.T) {
	const n = 256
	sys := tcpSystem(t, n, WithTraceSampling(8))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		est, err := sys.Query(ctx, "avg")
		if err != nil {
			t.Fatalf("variance never fell 100×: %v", err)
		}
		// Mass is conserved at every observation, not only at the end:
		// an observer can never catch a local exchange half applied.
		if math.Abs(est.Mean-0.5) > 1e-12 {
			t.Fatalf("mean of estimates %.17g, want 0.5", est.Mean)
		}
		// Gossip views mix slowly (bench/README.md, "Known baseline
		// behaviour"), so the bar is two orders of magnitude of
		// variance, not a fixed point.
		if est.Variance < 0.25/100 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := sys.Stats()
	if st.Replies == 0 || st.PeerBusy != 0 || st.Timeouts != 0 || st.SendErrors != 0 {
		t.Errorf("want completed exchanges and no nack, timeout or send error: %+v", st)
	}
	for _, series := range []string{
		`repro_transport_tcp_bytes_sent_total{shard="0"}`,
		`repro_transport_tcp_bytes_received_total{shard="0"}`,
		`repro_transport_tcp_dials_total{shard="0"}`,
		`repro_transport_batch_frames_total{shard="0"}`,
	} {
		if v := scrapeMust(t, sys, series); v != 0 {
			t.Errorf("%s = %g, want 0: the system talked to itself through the socket", series, v)
		}
	}
	if v := scrapeMust(t, sys, `repro_engine_local_delivered_total{shard="0"}`); v < float64(st.Replies) {
		t.Errorf("repro_engine_local_delivered_total = %g with %d exchanges completed", v, st.Replies)
	}
	recs := sys.Trace(0)
	if len(recs) == 0 {
		t.Fatal("trace ring empty: local exchanges are not sampled")
	}
	for _, rec := range recs {
		if rec.Dst < 0 || rec.Outcome.String() != "completed" {
			t.Fatalf("unexpected trace record for a local exchange: %v", rec)
		}
	}
}

// TestOpenTCPMeshStillCrossesHosts: two WithTCP systems (the benchmark's
// tcp-mesh shape, smaller) keep exchanging across the process boundary
// over real sockets beside their local traffic, and the combined mass
// is conserved within the benchmark's tolerance, 10⁻³ of the range.
func TestOpenTCPMeshStillCrossesHosts(t *testing.T) {
	const n = 128
	a := tcpSystem(t, n, WithValue(0))
	b := tcpSystem(t, n, WithValue(100), WithSeed(6), WithTCP("127.0.0.1:0", a.Nodes()[0].Addr()))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sent := func(s *System) float64 { return scrapeMust(t, s, `repro_transport_tcp_bytes_sent_total{shard="0"}`) }
	combined := func() (ea, eb Estimate) {
		ea, err := a.Query(ctx, "avg")
		if err != nil {
			t.Fatal(err)
		}
		eb, err = b.Query(ctx, "avg")
		if err != nil {
			t.Fatal(err)
		}
		return ea, eb
	}
	for {
		// One cross-host exchange moves 50/n into a host's mean.
		if ea, eb := combined(); ea.Mean > 0.3 && eb.Mean < 99.7 && sent(a) > 0 && sent(b) > 0 {
			break
		}
		if ctx.Err() != nil {
			ea, eb := combined()
			t.Fatalf("hosts never mixed over the wire: mean a=%g b=%g, bytes sent a=%g b=%g", ea.Mean, eb.Mean, sent(a), sent(b))
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, s := range []*System{a, b} {
		if v := scrapeMust(t, s, `repro_engine_local_delivered_total{shard="0"}`); v == 0 {
			t.Error("no local deliveries beside the cross-host traffic")
		}
	}
	// A cross-host exchange caught between its halves (or between the
	// two queries) is a transient the next poll no longer shows; a leak
	// persists and fails every poll.
	var mean float64
	for audit := time.Now().Add(5 * time.Second); time.Now().Before(audit); time.Sleep(2 * time.Millisecond) {
		ea, eb := combined()
		mean = (ea.Mean + eb.Mean) / 2
		if math.Abs(mean-50) <= 1e-3*100 {
			return
		}
	}
	t.Fatalf("combined mean %g, want 50 ± 0.1 (mass leaked across the local/remote split)", mean)
}

// TestOpenTCPSetValueRacesLocalExchanges: System.SetValue against
// exchanges that complete inside one round-lock hold.
// Concurrent writers on disjoint nodes; afterwards the estimates must
// carry exactly the mass of the last value written to every node.
func TestOpenTCPSetValueRacesLocalExchanges(t *testing.T) {
	const n, writers, writes = 64, 4, 300
	sys := tcpSystem(t, n, WithCycleLength(time.Millisecond))
	final := make([]float64, n)
	for i := range final {
		final[i] = float64(i % 2)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				node := w + writers*(i%(n/writers)) // writer w owns nodes ≡ w (mod writers)
				v := float64((i*31 + w*7) % 1000)
				if err := sys.SetValue(node, "avg", v); err != nil {
					t.Error(err)
					return
				}
				final[node] = v
			}
		}(w)
	}
	wg.Wait()
	var want float64
	for _, v := range final {
		want += v
	}
	want /= n
	est, err := sys.Query(context.Background(), "avg")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-want) > 1e-9*1000 {
		t.Fatalf("mean of estimates %.12g, mean of written values %.12g: a write raced a local exchange", est.Mean, want)
	}
	if sys.Stats().Replies == 0 {
		t.Fatal("no exchange completed beside the writes")
	}
}

// TestOpenTCPCrossShardStaysInProcess pins the scope of in-process
// delivery: with two workers each shard has its own listener, yet a
// send to the sibling shard is as much in-process as a same-shard one —
// it goes to the sibling's mailbox, not through the socket. Both shards
// complete exchanges with the other's nodes, neither socket dials or
// writes a byte, and mass is conserved across the mix.
func TestOpenTCPCrossShardStaysInProcess(t *testing.T) {
	const n = 64
	sys := tcpSystem(t, n, WithWorkers(2), WithTraceSampling(1))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	series := func(name string, shard int) float64 {
		return scrapeMust(t, sys, name+`{shard="`+strconv.Itoa(shard)+`"}`)
	}
	// crossed reports, per initiating shard, whether a traced exchange
	// with a node of the other shard has completed (shard 0 hosts the
	// first n/2 nodes).
	crossed := func() (bool, bool) {
		var c0, c1 bool
		for _, rec := range sys.Trace(0) {
			if rec.Outcome.String() != "completed" {
				continue
			}
			c0 = c0 || rec.Shard == 0 && rec.Dst >= n/2
			c1 = c1 || rec.Shard == 1 && rec.Dst >= 0 && rec.Dst < n/2
		}
		return c0, c1
	}
	for {
		c0, c1 := crossed()
		local := series("repro_engine_local_delivered_total", 0) > 0 && series("repro_engine_local_delivered_total", 1) > 0
		if c0 && c1 && local {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("want in-process deliveries on both shards and cross-shard exchanges both ways: local=%v crossed=%v,%v", local, c0, c1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for shard := 0; shard < 2; shard++ {
		for _, name := range []string{
			"repro_transport_tcp_bytes_sent_total",
			"repro_transport_tcp_dials_total",
			"repro_transport_batch_frames_total",
		} {
			if v := series(name, shard); v != 0 {
				t.Errorf("%s{shard=%d} = %g, want 0: sibling-shard traffic went through the socket", name, shard, v)
			}
		}
	}
	// A cross-shard exchange caught between its halves is a transient;
	// a leak persists (see TestOpenTCPMeshStillCrossesHosts).
	var mean float64
	for audit := time.Now().Add(5 * time.Second); time.Now().Before(audit); time.Sleep(2 * time.Millisecond) {
		est, err := sys.Query(ctx, "avg")
		if err != nil {
			t.Fatal(err)
		}
		if mean = est.Mean; math.Abs(mean-0.5) <= 1e-9 {
			return
		}
	}
	t.Fatalf("mean of estimates %.12g, want 0.5", mean)
}
