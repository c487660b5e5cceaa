package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/robust"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/xrand"
)

// A probe times calls into one layer's public function from outside,
// with the shapes the workload's own counters report (fields per
// message, digest length, messages per frame). The layers are not
// instrumented from inside in this change; a later one may replace a
// probe by a span inside the program.

// sink keeps probe results alive so the compiler cannot drop the work.
var sink float64

// shapes are the workload-dependent parameters of the probes.
type shapes struct {
	nodes        int // directory size
	digest       int // gossip entries piggybacked per message
	msgsPerFrame int // messages per batch frame, from the batcher's counters
}

// shapesFor derives the probe shapes from a traced window's counters.
func shapesFor(workload string, w *window) shapes {
	sh := shapes{nodes: 100_000, msgsPerFrame: 16}
	if workload == wlTCP {
		sh.digest = 3 // engine default GossipFanout
	}
	if w == nil {
		return sh
	}
	frames := w.last.sum("repro_transport_batch_frames_total") - w.first.sum("repro_transport_batch_frames_total")
	msgs := w.last.sum("repro_transport_batch_messages_total") - w.first.sum("repro_transport_batch_messages_total")
	if frames > 0 {
		sh.msgsPerFrame = int(math.Max(1, math.Round(msgs/frames)))
	}
	if n := w.last.sum("repro_engine_nodes"); n >= 2 {
		sh.nodes = int(n)
	}
	return sh
}

// probeSet collects the probes' outcomes: metric name → value in the
// metric's own unit.
type probeSet struct {
	sh     shapes
	values map[string]float64
}

// timeLoop runs body(n) five times and returns the median time per
// iteration in nanoseconds. body must perform n iterations itself so
// the loop overhead is a counter increment, not a closure call.
func timeLoop(n int, body func(n int)) float64 {
	body(n/10 + 1) // warm
	per := make([]float64, 5)
	for r := range per {
		start := time.Now()
		body(n)
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// record runs one probe under its own span.
func (p *probeSet) record(tr *tracer, parent int, name string, n int, body func(n int)) {
	start := time.Now()
	p.values[name] = timeLoop(n, body)
	tr.add(parent, "probe "+name, start, time.Now(), map[string]any{"ns_per_call": p.values[name]})
}

// probeMessage builds a protocol message of the workload's shape.
func probeMessage(sh shapes, kind transport.Kind, i int) transport.Message {
	m := transport.Message{
		Kind: kind, Epoch: 1, Seq: uint64(i),
		From:   transport.SubAddr("127.0.0.1:40001", i%sh.nodes),
		To:     transport.SubAddr("127.0.0.1:40002", (i*7)%sh.nodes),
		Fields: []float64{float64(i)},
	}
	for d := 0; d < sh.digest; d++ {
		m.Gossip = append(m.Gossip, transport.SubAddr("127.0.0.1:40001", (i+d+1)%sh.nodes))
		m.GossipAges = append(m.GossipAges, uint32(d))
	}
	return m
}

// sinkEndpoint accepts and discards everything: the far side of the
// batcher probe, so the probe times the batcher and not a transport.
type sinkEndpoint struct{ inbox chan transport.Message }

func (sinkEndpoint) Addr() string                                { return "sink" }
func (sinkEndpoint) Send(string, transport.Message) error        { return nil }
func (sinkEndpoint) SendBatch(string, []transport.Message) error { return nil }
func (e sinkEndpoint) Inbox() <-chan transport.Message           { return e.inbox }
func (sinkEndpoint) Close() error                                { return nil }

// runProbes times the layers that need no running system: core, the
// event heap, the codecs, batcher, fabric, loopback TCP, both samplers,
// the robust gate, the reducers and a registry scrape.
func runProbes(ctx context.Context, tr *tracer, parent int, cfg runConfig, sh shapes) *probeSet {
	p := &probeSet{sh: sh, values: make(map[string]float64)}
	phase := tr.begin(parent, "layer probes")
	defer tr.end(phase)

	// core: the two merge primitives of one exchange.
	for _, c := range []struct {
		name   string
		schema *core.Schema
	}{
		{"core.merge_exchange_ns_f1", core.AverageSchema()},
		{"core.merge_exchange_ns_f5", core.SummarySchema()},
	} {
		state, inbound := c.schema.InitState(1), c.schema.InitState(3)
		p.record(tr, phase, c.name, 2_000_000, func(n int) {
			for i := 0; i < n; i++ {
				c.schema.MergeExchange(state, inbound)
			}
			sink += state[0]
		})
	}
	{
		schema := core.AverageSchema()
		state, inbound := schema.InitState(1), schema.InitState(3)
		p.record(tr, phase, "core.merge_into_ns_f1", 2_000_000, func(n int) {
			for i := 0; i < n; i++ {
				schema.MergeInto(state, inbound)
			}
			sink += state[0]
		})
	}

	// sim.EventHeap at the depth of a 10⁵-node shard: pop the earliest
	// wake and push the node's next one, as the scheduler does.
	{
		const depth = 100_000
		h := sim.NewEventHeap(depth)
		rng := xrand.New(1)
		for i := 0; i < depth; i++ {
			h.Push(sim.Event{At: rng.Float64(), Node: int32(i)})
		}
		p.record(tr, phase, "sim.heap_push_pop_ns", 500_000, func(n int) {
			for i := 0; i < n; i++ {
				ev := h.Pop()
				ev.At++
				h.Push(ev)
			}
		})
	}

	p.transportProbes(tr, phase)
	p.membershipProbes(tr, phase)

	// robust gate.
	{
		var trim robust.TrimState
		trim.Scale = 1
		p.record(tr, phase, "robust.admit_ns", 2_000_000, func(n int) {
			ok := 0
			for i := 0; i < n; i++ {
				if trim.Admit(float64(i&7)-3.5, 8) {
					ok++
				}
			}
			sink += float64(ok)
		})
		policy := robust.Policy{Clamp: true, ClampMin: -100, ClampMax: 100}
		p.record(tr, phase, "robust.clamp_ns", 2_000_000, func(n int) {
			var s float64
			for i := 0; i < n; i++ {
				s += policy.ClampValue(float64(i&255) - 128)
			}
			sink += s
		})
	}

	// stats reducers: what every Query and per-cycle snapshot folds with.
	{
		var run stats.Running
		p.record(tr, phase, "stats.running_add_ns", 2_000_000, func(n int) {
			for i := 0; i < n; i++ {
				run.Add(float64(i & 1023))
			}
			sink += run.Mean()
		})
		mom := stats.NewMedianOfMeans(16)
		p.record(tr, phase, "stats.mom_add_ns", 2_000_000, func(n int) {
			for i := 0; i < n; i++ {
				mom.Add(float64(i & 1023))
			}
			sink += mom.Estimate()
		})
	}

	// metrics: one Prometheus scrape of a live two-shard registry.
	if sys, err := repro.Open(repro.WithSize(1000), repro.WithWorkers(2), repro.WithCycleLength(50*time.Millisecond)); err == nil {
		buf := make([]byte, 0, 64<<10)
		p.record(tr, phase, "metrics.scrape_us", 500, func(n int) {
			for i := 0; i < n; i++ {
				buf = sys.Metrics().AppendPrometheus(buf[:0])
			}
			sink += float64(len(buf))
		})
		p.values["metrics.scrape_us"] /= 1e3
		sys.Close()
	}

	start := time.Now()
	mixNodes := 2000
	if cfg.scale.smoke {
		mixNodes = 300
	}
	if mix, err := viewMix(ctx, mixNodes, cfg.seed); err == nil {
		p.values["membership.view_mix"] = mix
		tr.add(phase, "probe membership.view_mix", start, time.Now(), map[string]any{"samplers": mixNodes})
	} else {
		fmt.Fprintln(logOut, "  probe membership.view_mix:", err)
	}
	return p
}

// transportProbes times the codecs, the batcher, the in-memory fabric
// and a loopback TCP frame, with the workload's message shape and
// messages per frame.
func (p *probeSet) transportProbes(tr *tracer, phase int) {
	sh := p.sh
	frame := make([]transport.Message, sh.msgsPerFrame)
	for i := range frame {
		frame[i] = probeMessage(sh, transport.KindPush, i)
	}
	perMsg := func(name string) { p.values[name] /= float64(len(frame)) }

	one := frame[0]
	wire, _ := one.AppendBinary(nil)
	buf := make([]byte, 0, 4096)
	p.record(tr, phase, "transport.append_binary_ns", 1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = one.AppendBinary(buf[:0])
		}
		sink += float64(len(buf))
	})
	p.record(tr, phase, "transport.unmarshal_binary_ns", 500_000, func(n int) {
		var m transport.Message
		for i := 0; i < n; i++ {
			_ = m.UnmarshalBinary(wire)
		}
		sink += float64(m.Seq)
	})

	batchWire, _ := transport.AppendBatch(nil, frame)
	big := make([]byte, 0, len(batchWire)+64)
	p.record(tr, phase, "transport.append_batch_ns_per_msg", 100_000, func(n int) {
		for i := 0; i < n; i++ {
			big, _ = transport.AppendBatch(big[:0], frame)
		}
		sink += float64(len(big))
	})
	perMsg("transport.append_batch_ns_per_msg")
	p.record(tr, phase, "transport.unmarshal_batch_ns_per_msg", 50_000, func(n int) {
		var scratch []transport.Message
		for i := 0; i < n; i++ {
			scratch, _ = transport.UnmarshalBatchInto(batchWire, scratch[:0])
		}
		sink += float64(len(scratch))
	})
	perMsg("transport.unmarshal_batch_ns_per_msg")

	// Batcher alone: Send a frame's worth to one destination, Flush.
	b := transport.NewBatcher(sinkEndpoint{inbox: make(chan transport.Message)})
	p.record(tr, phase, "transport.batcher_ns_per_msg", 100_000, func(n int) {
		for i := 0; i < n; i++ {
			for j := range frame {
				_ = b.Send(frame[j].To, frame[j])
			}
			b.Flush()
		}
	})
	perMsg("transport.batcher_ns_per_msg")
	_ = b.Close()

	// Fabric: one endpoint's batch into its peer's inbox and out again.
	fab := transport.NewFabric(transport.WithInboxSize(4 * len(frame)))
	src, dst := fab.NewEndpoint(), fab.NewEndpoint()
	for i := range frame {
		frame[i].To = transport.SubAddr(dst.Addr(), i)
	}
	sender := src.(transport.BatchSender)
	p.record(tr, phase, "transport.fabric_ns_per_msg", 100_000, func(n int) {
		for i := 0; i < n; i++ {
			_ = sender.SendBatch(dst.Addr(), frame)
			for range frame {
				<-dst.Inbox()
			}
		}
	})
	perMsg("transport.fabric_ns_per_msg")
	_ = src.Close()
	_ = dst.Close()

	p.tcpProbe(tr, phase, frame)
}

// tcpProbe times TCPEndpoint.SendBatch → the peer's Inbox over real
// loopback sockets, in process CPU time: writer, kernel and reader all
// spend it, on more than one thread, and the budget it feeds is a CPU
// budget.
func (p *probeSet) tcpProbe(tr *tracer, phase int, frame []transport.Message) {
	a, err := transport.NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		return
	}
	defer a.Close()
	b, err := transport.NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		return
	}
	defer b.Close()
	for i := range frame {
		frame[i].To = transport.SubAddr(b.Addr(), i)
	}
	// The receiver owns what it is handed, so every frame is sent from
	// fresh message values sharing the probe's (never mutated) slices.
	send := func(frames int) bool {
		out := make([]transport.Message, len(frame))
		for f := 0; f < frames; f++ {
			copy(out, frame)
			if err := a.SendBatch(b.Addr(), out); err != nil {
				return false
			}
			// One frame in flight at a time: the inbox can never
			// overflow and drop.
			for range frame {
				select {
				case <-b.Inbox():
				case <-time.After(2 * time.Second):
					return false
				}
			}
		}
		return true
	}
	if !send(50) { // dial, warm
		return
	}
	const frames = 3000
	per := make([]float64, 3)
	start := time.Now()
	for r := range per {
		c0 := cpuTime()
		if !send(frames) {
			return
		}
		per[r] = float64((cpuTime() - c0).Nanoseconds()) / frames
	}
	p.values["transport.tcp_ns_per_frame"] = median(per)
	p.values["transport.tcp_ns_per_msg"] = median(per) / float64(len(frame))
	tr.add(phase, "probe transport.tcp_ns_per_frame", start, time.Now(),
		map[string]any{"cpu_ns_per_frame": median(per), "msgs_per_frame": len(frame)})
}

// membershipProbes times both samplers' per-exchange calls and measures
// how well gossip membership mixes a ring-bootstrapped overlay.
func (p *probeSet) membershipProbes(tr *tracer, phase int) {
	sh := p.sh
	addrs := make([]string, sh.nodes)
	for i := range addrs {
		addrs[i] = transport.SubAddr("mem-1", i)
	}
	rng := xrand.New(7)
	if dir, err := membership.NewDirectory(addrs, 0); err == nil {
		p.record(tr, phase, "membership.directory_sample_ns", 2_000_000, func(n int) {
			var l int
			for i := 0; i < n; i++ {
				peer, _ := dir.Sample(rng)
				l += len(peer)
			}
			sink += float64(l)
		})
	}
	g, err := membership.NewGossipSampler(addrs[0], 8, addrs[1:9])
	if err != nil {
		return
	}
	p.record(tr, phase, "membership.gossip_sample_ns", 2_000_000, func(n int) {
		var l int
		for i := 0; i < n; i++ {
			peer, _ := g.Sample(rng)
			l += len(peer)
		}
		sink += float64(l)
	})
	digestLen := max(sh.digest, 3)
	ages := []uint32{0, 1, 2, 3, 4, 5, 6, 7}[:digestLen]
	p.record(tr, phase, "membership.gossip_observe_ns", 500_000, func(n int) {
		for i := 0; i < n; i++ {
			at := 10 + (i*digestLen)%(len(addrs)-20)
			g.Observe(addrs[at], addrs[at+1:at+1+digestLen], ages)
			if i&63 == 0 {
				g.Tick() // views age once per cycle, as in the engine
			}
		}
	})
	p.record(tr, phase, "membership.gossip_digest_ns", 500_000, func(n int) {
		var l int
		for i := 0; i < n; i++ {
			// nil in, as the engine calls it: the digest must be owned
			// by the message that carries it.
			out, _ := g.AppendDigest(nil, nil, rng, digestLen)
			l += len(out)
		}
		sink += float64(l)
	})
}

// viewMix runs n gossip samplers, ring-bootstrapped, for 50 cycles on
// an in-memory cluster and returns the mean ring distance of their view
// entries as a share of N/4 (what uniform sampling would give): 1 is a
// well-mixed overlay, → 0 one that never left its ring neighbourhood.
func viewMix(ctx context.Context, n int, seed uint64) (float64, error) {
	const cycle = 20 * time.Millisecond
	samplers := make([]*membership.GossipSampler, n)
	index := make(map[string]int, n)
	cluster, err := repro.NewCluster(repro.ClusterConfig{
		Size:        n,
		Schema:      repro.NewAverageSchema(),
		Value:       func(i int) float64 { return float64(i) },
		CycleLength: cycle,
		Mode:        repro.ModeHeap,
		Workers:     2,
		Seed:        seed,
		Samplers: func(i int, self string, local []string) (membership.Sampler, error) {
			s, err := repro.NewGossipSampler(self, 8, []string{local[(i+1)%len(local)]})
			if err != nil {
				return nil, err
			}
			index[self] = i
			samplers[i] = s.(*membership.GossipSampler)
			return s, nil
		},
	})
	if err != nil {
		return 0, err
	}
	cluster.Start(ctx)
	select {
	case <-ctx.Done():
	case <-time.After(50 * cycle):
	}
	cluster.Stop()
	var sum float64
	var entries int
	for i, s := range samplers {
		for _, addr := range s.ViewAddrs() {
			j, ok := index[addr]
			if !ok {
				continue
			}
			d := i - j
			if d < 0 {
				d = -d
			}
			sum += float64(min(d, n-d))
			entries++
		}
	}
	if entries == 0 {
		return 0, fmt.Errorf("view mix: no view entries after 50 cycles")
	}
	return sum / float64(entries) / (float64(n) / 4), nil
}

// report copies the probe results into the result.
func (p *probeSet) report(r *result) {
	names := make([]string, 0, len(p.values))
	for name := range p.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.set(name, p.values[name])
	}
}

// budget builds the per-exchange cost table of a live workload from the
// probe rows. Multiplicities are calls per completed exchange on the
// engine's path (runtime.go): a wake and a reply deadline each cost a
// heap pop+push; the initiator samples one peer; a push and a reply
// each pass the batcher and the transport once; the passive side merges
// with MergeExchange and the initiator with MergeInto. Over TCP every
// message also carries and folds a membership digest, and the loopback
// row (which includes framing and both codecs) replaces the fabric row.
func (p *probeSet) budget(workload string, w *window, observedNs float64) *budget {
	b := &budget{Workload: workload}
	row := func(metric string, mult float64) { b.add(metric, p.values[metric], mult) }
	row("sim.heap_push_pop_ns", 2)
	row("transport.batcher_ns_per_msg", 2)
	row("core.merge_exchange_ns_f1", 1)
	row("core.merge_into_ns_f1", 1)
	if workload == wlTCP {
		row("membership.gossip_sample_ns", 1)
		row("membership.gossip_digest_ns", 2)
		row("membership.gossip_observe_ns", 2)
		row("transport.tcp_ns_per_msg", 2)
	} else {
		row("membership.directory_sample_ns", 1)
		row("transport.fabric_ns_per_msg", 2)
	}
	if workload == wlServe {
		// The service's per-cycle reduce, spread over the cycle's
		// exchanges: reduces per cycle × N nodes / (N·completion).
		reduces := w.last.sum("repro_watch_reduces_total") - w.first.sum("repro_watch_reduces_total")
		if w.stats.Replies > 0 {
			row("system.reduce_ns_per_node", reduces*float64(p.sh.nodes)/float64(w.stats.Replies))
		}
	}
	b.close(observedNs)
	return b
}

// kernelProbes times the kernel-sweep layers: the bare sim kernel at
// both working-set sizes and on two shards, kernel construction, the
// scenario veneer over it, its per-cycle row reduction, and the sparse
// overlay build.
func (p *probeSet) kernelProbes(ctx context.Context, tr *tracer, parent int, sc scale, seed uint64) {
	phase := tr.begin(parent, "kernel probes")
	defer tr.end(phase)
	const cycles = 10
	bare := func(name string, n, shards int) {
		start := time.Now()
		k, err := sim.New(sim.Config{Size: n, Shards: shards, Seed: seed})
		if err != nil || k.SetValues(0, peakValues(n)) != nil {
			return
		}
		k.Cycle() // warm
		c0 := cpuTime()
		for c := 0; c < cycles; c++ {
			k.Cycle()
		}
		ns := float64((cpuTime() - c0).Nanoseconds()) / float64(cycles*n)
		p.values[name] = ns
		tr.add(phase, "probe "+name, start, time.Now(), map[string]any{"cpu_ns_per_exchange": ns})
	}
	bare("sim.cycle_ns_per_exchange_seq", sc.kernelN, 0)
	bare("sim.cycle_ns_per_exchange_sharded", sc.kernelN, 2)
	bare("sim.cycle_ns_per_exchange_n1e5", sc.kernelSmallN, 0)

	start := time.Now()
	news := make([]float64, 3)
	for i := range news {
		t0 := time.Now()
		if _, err := sim.New(sim.Config{Size: sc.kernelN, Seed: seed}); err != nil {
			return
		}
		news[i] = time.Since(t0).Seconds() * 1e3
	}
	p.values["sim.new_ms"] = median(news)
	tr.add(phase, "probe sim.new_ms", start, time.Now(), nil)

	// scenario.overhead_share: repro.Run of the headline spec against a
	// bare Kernel.Run of the same configuration.
	start = time.Now()
	specs := kernelSpecs(sc, seed)
	c0 := cpuTime()
	if _, err := repro.Run(ctx, specs[0].spec); err != nil {
		return
	}
	viaRun := cpuTime() - c0
	c0 = cpuTime()
	k, err := sim.New(sim.Config{Size: sc.kernelN, Seed: seed})
	if err != nil || k.SetValues(0, specs[0].spec.Values) != nil {
		return
	}
	sink += k.Run(sc.kernelCycles)[sc.kernelCycles]
	direct := cpuTime() - c0
	p.values["scenario.overhead_share"] = 1 - float64(direct)/float64(viaRun)
	tr.add(phase, "probe scenario.overhead_share", start, time.Now(),
		map[string]any{"run_cpu_ns": viaRun.Nanoseconds(), "bare_cpu_ns": direct.Nanoseconds()})

	// scenario's per-cycle row: extrema, mean and variance of the column.
	col := k.Column(0)
	p.record(tr, phase, "scenario.row_reduce_ns_per_node", 5, func(n int) {
		for i := 0; i < n; i++ {
			lo, hi := stats.MinMax(col)
			sink += lo + hi + stats.Mean(col) + stats.Variance(col)
		}
	})
	p.values["scenario.row_reduce_ns_per_node"] /= float64(len(col))

	start = time.Now()
	builds := make([]float64, 3)
	for i := range builds {
		t0 := time.Now()
		if _, err := topology.Build(topology.KindKRegular, sc.kernelSmallN, 20, xrand.New(seed+uint64(i))); err != nil {
			return
		}
		builds[i] = time.Since(t0).Seconds() * 1e3
	}
	p.values["topology.build_ms_kregular"] = median(builds)
	tr.add(phase, "probe topology.build_ms_kregular", start, time.Now(), nil)
}

// serveProbes times the system and serve layers on the live traced
// system: direct reduces, queries and value writes, and the HTTP
// handlers with a recorder instead of a socket.
func (p *probeSet) serveProbes(ctx context.Context, tr *tracer, parent int, sess *serveSession) {
	phase := tr.begin(parent, "system and serve probes")
	defer tr.end(phase)
	sys, n := sess.sys, sess.nodes

	p.record(tr, phase, "system.reduce_ns_per_node", 200, func(k int) {
		for i := 0; i < k; i++ {
			var run repro.Running
			_ = sys.Reduce(ctx, "avg", &run)
			sink += run.Mean()
		}
	})
	p.values["system.reduce_ns_per_node"] /= float64(n)

	p.record(tr, phase, "system.query_us", 200, func(k int) {
		for i := 0; i < k; i++ {
			est, _ := sys.Query(ctx, "avg")
			sink += est.Mean
		}
	})
	p.values["system.query_us"] /= 1e3

	// SetValue to the value the node already holds: the whole write
	// path, in-flight interlock included, without moving the truth.
	start := time.Now()
	var set timing
	rng := xrand.New(11)
	for i := 0; i < 2000; i++ {
		node := rng.Intn(n)
		t0 := time.Now()
		_ = sys.SetValue(node, "avg", sess.led.vals[node])
		set.add(time.Since(t0).Seconds())
	}
	p.values["system.set_value_us_p50"] = set.p(0.5) * 1e6
	_, p99 := set.tail(0.99)
	p.values["system.set_value_us_p99"] = p99 * 1e6
	tr.add(phase, "probe system.set_value_us", start, time.Now(), nil)

	nodes := make([]int, 100)
	values := make([]float64, len(nodes))
	for i := range nodes {
		nodes[i] = rng.Intn(n)
		values[i] = sess.led.vals[nodes[i]]
	}
	body := renderValuesBody(nodes, values)
	p.record(tr, phase, "serve.post_values_us_per_value", 100, func(k int) {
		for i := 0; i < k; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/values", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			sess.handler.ServeHTTP(rec, req)
			sink += float64(rec.Code)
		}
	})
	p.values["serve.post_values_us_per_value"] /= 1e3 * float64(len(nodes))

	p.record(tr, phase, "serve.query_handler_us", 200, func(k int) {
		for i := 0; i < k; i++ {
			req := httptest.NewRequest(http.MethodGet, "/v1/query/avg", nil)
			rec := httptest.NewRecorder()
			sess.handler.ServeHTTP(rec, req)
			sink += float64(rec.Code)
		}
	})
	p.values["serve.query_handler_us"] /= 1e3
}

// saturatedRate is the one wall-clock throughput number kept, and only
// as a diagnostic: completed exchanges per second of a 10⁴-node
// in-memory system asked for a cycle every millisecond — far beyond
// what two cores deliver — over a two-second burst. It swings severalfold
// between windows on a shared host; nothing may be gated on it.
func saturatedRate(ctx context.Context, cfg runConfig) float64 {
	n := 10_000
	if cfg.scale.smoke {
		n = 1000
	}
	sys, err := repro.Open(repro.WithSize(n), repro.WithWorkers(2),
		repro.WithCycleLength(time.Millisecond), repro.WithSeed(cfg.seed))
	if err != nil {
		return 0
	}
	defer sys.Close()
	burst := 2 * time.Second
	if cfg.scale.smoke {
		burst = 300 * time.Millisecond
	}
	start, r0 := time.Now(), sys.Stats().Replies
	select {
	case <-ctx.Done():
	case <-time.After(burst):
	}
	return float64(sys.Stats().Replies-r0) / time.Since(start).Seconds()
}
