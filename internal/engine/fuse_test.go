package engine

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/robust"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// newScriptedRuntime builds a one-worker runtime that is never started:
// the test drives its shard's handlers directly, with no clock and no
// worker goroutine. mut adjusts the config before construction.
func newScriptedRuntime(tb testing.TB, size int, mut func(*RuntimeConfig)) *Runtime {
	tb.Helper()
	cfg := RuntimeConfig{
		Size:        size,
		Schema:      core.AverageSchema(),
		Value:       func(i int) float64 { return float64(i) + 0.5 },
		CycleLength: time.Second,
		Workers:     1,
		Seed:        29,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := NewRuntime(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Stop)
	return rt
}

// TestFusedStepMatchesLetters pins the fused same-shard exchange to the
// letter path it replaces, bit for bit. Two unstarted one-worker
// runtimes share every setting but TraceSample: at 1 every seq is
// trace-sampled, so fuse declines and every exchange takes the letters
// (push, servePush, reply, handleReply), while the other runtime fuses.
// A seeded script of initiate+drainLocal steps drives both; every 7
// steps one node is marked busy, as a cross-shard exchange it had out
// would, so the nack path runs too. After every step the state column,
// the runtime and per-node counters, the shard's seq and its delivery
// counters must agree exactly.
func TestFusedStepMatchesLetters(t *testing.T) {
	const size, steps = 64, 5000
	vals := make([]float64, size)
	vrng := xrand.New(3)
	for i := range vals {
		vals[i] = vrng.Float64()*100 - 50
	}
	build := func(traceSample int) *rshard {
		rt := newScriptedRuntime(t, size, func(c *RuntimeConfig) {
			c.Schema = core.SummarySchema()
			c.Value = func(i int) float64 { return vals[i] }
			c.TraceSample = traceSample
		})
		return rt.shards[0]
	}
	fused, letters := build(0), build(1)
	both := [2]*rshard{fused, letters}

	script := xrand.New(77)
	busy := -1
	for k := range steps {
		if k%7 == 0 {
			next := script.Intn(size)
			for _, s := range both {
				if busy >= 0 {
					s.nodes[busy].pendingSeq = 0
				}
				s.nodes[next].pendingSeq = 1<<62 + uint64(k)
			}
			busy = next
		}
		li := script.Intn(size)
		if li == busy {
			li = (li + 1) % size
		}
		now := float64(k) * 1e-3
		for _, s := range both {
			s.initiate(li, now, 0)
			s.drainLocal()
		}

		for j := range fused.backing {
			if a, b := math.Float64bits(fused.backing[j]), math.Float64bits(letters.backing[j]); a != b {
				t.Fatalf("step %d: node %d field %d: fused %x, letters %x",
					k, j/fused.width, j%fused.width, a, b)
			}
		}
		if a, b := fused.rt.Stats(), letters.rt.Stats(); a != b {
			t.Fatalf("step %d: runtime stats: fused %+v, letters %+v", k, a, b)
		}
		for i := range size {
			if a, b := fused.rt.NodeStats(i), letters.rt.NodeStats(i); a != b {
				t.Fatalf("step %d: node %d stats: fused %+v, letters %+v", k, i, a, b)
			}
		}
		if fused.seq != letters.seq || fused.recv != letters.recv || fused.localDelivered != letters.localDelivered {
			t.Fatalf("step %d: seq/recv/localDelivered: fused %d/%d/%d, letters %d/%d/%d", k,
				fused.seq, fused.recv, fused.localDelivered, letters.seq, letters.recv, letters.localDelivered)
		}
	}

	st := fused.rt.Stats()
	if st.PeerBusy == 0 || st.Replies == 0 {
		t.Fatalf("the script exercised too little: %+v", st)
	}
	if fused.free.gets != 0 || letters.free.gets == 0 {
		t.Fatalf("pool draws: fused %d, letters %d — want none on the fused path and some on the letters",
			fused.free.gets, letters.free.gets)
	}
	t.Logf("%d steps: %d replies, %d busy nacks", steps, st.Replies, st.PeerBusy)
}

// TestFusedStepGate pins when fuse declines. Each row sets up one
// condition under which the letters do more than merge and count, on a
// two-node runtime (so node 1 is always node 0's partner), and asserts
// that initiate queued a push letter instead of fusing. A plain honest
// pair, busy partner or not, must queue none.
func TestFusedStepGate(t *testing.T) {
	directory := func(i int, _ string, local []string) (membership.Sampler, error) {
		return membership.NewDirectory(local, i)
	}
	gossipOn := func(node int) func(int, string, []string) (membership.Sampler, error) {
		return func(i int, self string, local []string) (membership.Sampler, error) {
			if i != node {
				return directory(i, self, local)
			}
			return membership.NewGossipSampler(self, 4, []string{local[1-i]})
		}
	}
	for _, tc := range []struct {
		name    string
		cfg     func(*RuntimeConfig)
		setup   func(*Runtime)
		letters bool
	}{
		{name: "plain honest pair"},
		{name: "busy partner", setup: func(rt *Runtime) { rt.shards[0].nodes[1].pendingSeq = 1 << 62 }},
		{name: "directory sampler", cfg: func(c *RuntimeConfig) { c.Samplers = directory }},
		{name: "push-only", cfg: func(c *RuntimeConfig) { c.PushOnly = true }, letters: true},
		{name: "robust on", setup: func(rt *Runtime) {
			rt.SetRobust(robust.Policy{Clamp: true, ClampMin: -1e9, ClampMax: 1e9})
		}, letters: true},
		{name: "failed partner", setup: func(rt *Runtime) { rt.FailNode(1) }, letters: true},
		{name: "observing initiator", cfg: func(c *RuntimeConfig) { c.Samplers = gossipOn(0) }, letters: true},
		{name: "observing partner", cfg: func(c *RuntimeConfig) { c.Samplers = gossipOn(1) }, letters: true},
		{name: "adversarial initiator", setup: func(rt *Runtime) {
			rt.shards[0].nodes[0].adv = 1 + uint8(sim.AdvExtreme)
		}, letters: true},
		{name: "adversarial partner", setup: func(rt *Runtime) {
			rt.shards[0].nodes[1].adv = 1 + uint8(sim.AdvSelectiveDrop)
		}, letters: true},
		{name: "partner in a newer epoch", setup: func(rt *Runtime) {
			rt.shards[0].nodes[1].tracker.Observe(1)
		}, letters: true},
		{name: "initiator in a newer epoch", setup: func(rt *Runtime) {
			rt.shards[0].nodes[0].tracker.Observe(1)
		}, letters: true},
		{name: "trace-sampled seq", cfg: func(c *RuntimeConfig) { c.TraceSample = 1 }, letters: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newScriptedRuntime(t, 2, tc.cfg)
			if tc.setup != nil {
				tc.setup(rt)
			}
			s := rt.shards[0]
			s.initiate(0, 0, 0)
			want := 0
			if tc.letters {
				want = 1
			}
			if len(s.local) != want {
				t.Fatalf("initiate queued %d letters, want %d", len(s.local), want)
			}
			if delivered := s.drainLocal(); !tc.letters && delivered != 2 {
				t.Fatalf("drainLocal charged %d deliveries for a fused exchange, want a push and its answer (2)", delivered)
			}
			if st := rt.Stats(); st.Initiated != 1 {
				t.Fatalf("stats %+v, want one initiated exchange", st)
			}
		})
	}
}

// TestCrossShardFuseMatchesLetters pins the cross-shard fused exchange
// to the letter path it replaces, bit for bit. Two unstarted two-worker
// runtimes share every setting but TraceSample: at 1 every seq is
// trace-sampled, so fuse declines and every exchange goes by letter —
// the push posted to the partner shard's mailbox and served there, the
// answer posted back and handled — while the other runtime fuses under
// the sibling's round lock. A seeded script of cross-shard initiate
// steps drives both; every 7 steps one node is marked busy, as an
// exchange it had out would, so the nack path runs too. After every step
// the state column, the runtime and per-node counters, and each shard's
// seq and delivery counters must agree exactly.
func TestCrossShardFuseMatchesLetters(t *testing.T) {
	const size, steps = 64, 5000
	vals := make([]float64, size)
	vrng := xrand.New(5)
	for i := range vals {
		vals[i] = vrng.Float64()*100 - 50
	}
	build := func(traceSample int) *Runtime {
		return newScriptedRuntime(t, size, func(c *RuntimeConfig) {
			c.Schema = core.SummarySchema()
			c.Value = func(i int) float64 { return vals[i] }
			c.Workers = 2
			c.TraceSample = traceSample
		})
	}
	fused, letters := build(0), build(1)
	both := [2]*Runtime{fused, letters}
	setPending := func(i int, seq uint64) {
		for _, rt := range both {
			s := rt.shardOf(i)
			s.nodes[i-s.lo].pendingSeq = seq
		}
	}
	// pick draws a node of shard w other than skip.
	pick := func(script *xrand.Rand, w, skip int) int {
		s := fused.shards[w]
		i := s.lo + script.Intn(s.hi-s.lo)
		if i == skip {
			i = s.lo + (i-s.lo+1)%(s.hi-s.lo)
		}
		return i
	}

	script := xrand.New(83)
	busy := -1
	for k := range steps {
		if k%7 == 0 {
			if busy >= 0 {
				setPending(busy, 0)
			}
			busy = script.Intn(size)
			setPending(busy, 1<<62+uint64(k))
		}
		w := script.Intn(2)
		i, p := pick(script, w, busy), pick(script, 1-w, -1)
		now := float64(k) * 1e-3
		for _, rt := range both {
			s, ps := rt.shards[w], rt.shards[1-w]
			s.initiate(i-s.lo, now, 1+int32(p))
			s.drainLocal()
			s.postLocked()
			handleMail(ps)
			ps.postLocked()
			handleMail(s)
		}

		for w := range fused.shards {
			fs, ls := fused.shards[w], letters.shards[w]
			for j := range fs.backing {
				if a, b := math.Float64bits(fs.backing[j]), math.Float64bits(ls.backing[j]); a != b {
					t.Fatalf("step %d: node %d field %d: fused %x, letters %x",
						k, fs.lo+j/fs.width, j%fs.width, a, b)
				}
			}
			if fs.seq != ls.seq || fs.recv != ls.recv || fs.localDelivered != ls.localDelivered {
				t.Fatalf("step %d: shard %d seq/recv/localDelivered: fused %d/%d/%d, letters %d/%d/%d", k, w,
					fs.seq, fs.recv, fs.localDelivered, ls.seq, ls.recv, ls.localDelivered)
			}
		}
		if a, b := fused.Stats(), letters.Stats(); a != b {
			t.Fatalf("step %d: runtime stats: fused %+v, letters %+v", k, a, b)
		}
		for i := range size {
			if a, b := fused.NodeStats(i), letters.NodeStats(i); a != b {
				t.Fatalf("step %d: node %d stats: fused %+v, letters %+v", k, i, a, b)
			}
		}
	}

	st := fused.Stats()
	if st.PeerBusy == 0 || st.Replies == 0 || st.Replies+st.PeerBusy != steps {
		t.Fatalf("the script exercised too little: %+v", st)
	}
	for w := range fused.shards {
		if fg, lg := fused.shards[w].free.gets, letters.shards[w].free.gets; fg != 0 || lg == 0 {
			t.Fatalf("shard %d pool draws: fused %d, letters %d — want none on the fused path and some on the letters",
				w, fg, lg)
		}
	}
	t.Logf("%d steps: %d replies, %d busy nacks", steps, st.Replies, st.PeerBusy)
}

// TestCrossShardFuseGate pins when a cross-shard exchange declines fuse.
// On a four-node two-worker runtime node 0 (shard 0) initiates with node
// 2 (shard 1); each row sets up one condition under which fuse must not
// run the pair in place — the partner shard's round lock held, or the
// letters doing more than merge and count — and asserts that initiate
// staged a push letter for shard 1. A plain honest pair, busy partner or
// not, stages none and charges the round one delivery, the answer.
func TestCrossShardFuseGate(t *testing.T) {
	// toTwo gives node 0 a sampler that always draws node 2, and every
	// other node a plain directory; gossip swaps a gossip sampler in for
	// one node.
	toTwo := func(gossip int) func(int, string, []string) (membership.Sampler, error) {
		return func(i int, self string, local []string) (membership.Sampler, error) {
			switch {
			case i == gossip:
				return membership.NewGossipSampler(self, 4, []string{local[2-i]})
			case i == 0:
				return membership.NewDirectory([]string{local[0], local[2]}, 0)
			}
			return membership.NewDirectory(local, i)
		}
	}
	for _, tc := range []struct {
		name    string
		cfg     func(*RuntimeConfig)
		setup   func(*Runtime)
		hold    bool // shard 1's round lock is held across initiate
		letters bool
	}{
		{name: "plain honest pair"},
		{name: "busy partner", setup: func(rt *Runtime) { rt.shards[1].nodes[0].pendingSeq = 1 << 62 }},
		{name: "directory sampler", cfg: func(c *RuntimeConfig) { c.Samplers = toTwo(-1) }},
		{name: "partner lock held", hold: true, letters: true},
		{name: "push-only", cfg: func(c *RuntimeConfig) { c.PushOnly = true }, letters: true},
		{name: "robust on", setup: func(rt *Runtime) {
			rt.SetRobust(robust.Policy{Clamp: true, ClampMin: -1e9, ClampMax: 1e9})
		}, letters: true},
		{name: "robust on in the partner's shard only", setup: func(rt *Runtime) {
			rt.shards[1].robust = robust.Policy{Clamp: true, ClampMin: -1e9, ClampMax: 1e9}
			rt.shards[1].robustOn = true
		}, letters: true},
		{name: "failed partner", setup: func(rt *Runtime) { rt.FailNode(2) }, letters: true},
		{name: "observing initiator", cfg: func(c *RuntimeConfig) { c.Samplers = toTwo(0) }, letters: true},
		{name: "observing partner", cfg: func(c *RuntimeConfig) { c.Samplers = toTwo(2) }, letters: true},
		{name: "adversarial initiator", setup: func(rt *Runtime) {
			rt.shards[0].nodes[0].adv = 1 + uint8(sim.AdvExtreme)
		}, letters: true},
		{name: "adversarial partner", setup: func(rt *Runtime) {
			rt.shards[1].nodes[0].adv = 1 + uint8(sim.AdvSelectiveDrop)
		}, letters: true},
		{name: "partner in a newer epoch", setup: func(rt *Runtime) {
			rt.shards[1].nodes[0].tracker.Observe(1)
		}, letters: true},
		{name: "initiator in a newer epoch", setup: func(rt *Runtime) {
			rt.shards[0].nodes[0].tracker.Observe(1)
		}, letters: true},
		{name: "trace-sampled seq", cfg: func(c *RuntimeConfig) { c.TraceSample = 1 }, letters: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newScriptedRuntime(t, 4, func(c *RuntimeConfig) {
				c.Workers = 2
				if tc.cfg != nil {
					tc.cfg(c)
				}
			})
			if tc.setup != nil {
				tc.setup(rt)
			}
			s, ps := rt.shards[0], rt.shards[1]
			if tc.hold {
				ps.mu.Lock()
			}
			s.initiate(0, 0, 1+2)
			if tc.hold {
				ps.mu.Unlock()
			}
			want := 0
			if tc.letters {
				want = 1
			}
			if got := len(s.outbox[ps.id]); got != want || len(s.local) != 0 {
				t.Fatalf("initiate staged %d letters for the partner shard and %d local ones, want %d and 0",
					got, len(s.local), want)
			}
			if delivered := s.drainLocal(); !tc.letters && delivered != 1 {
				t.Fatalf("drainLocal charged %d deliveries for a cross-shard fused exchange, want its answer (1)", delivered)
			}
			if st := rt.Stats(); st.Initiated != 1 {
				t.Fatalf("stats %+v, want one initiated exchange", st)
			}
			if !tc.letters && (ps.recv != 1 || ps.localDelivered != 1 || s.recv != 1) {
				t.Fatalf("recv %d/%d, partner localDelivered %d; want the push counted on shard 1 and the answer on shard 0",
					s.recv, ps.recv, ps.localDelivered)
			}
		})
	}
}
