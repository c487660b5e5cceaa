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
