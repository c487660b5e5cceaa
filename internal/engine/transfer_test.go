package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/sim"
)

// The scripts below drive an unstarted two-worker runtime by hand: shard
// 0 hosts nodes 0 and 1, shard 1 hosts nodes 2 and 3. A letter between
// the shards moves only when the script posts its sender's outbox
// (postLocked) and has the receiver handle its mailbox (handleMail), so
// the script decides exactly what interleaves with an exchange in
// flight. Values are dyadic, so every sum is exact. A cross-shard push
// fuses in place when its partner's round lock is free (fuse), so the
// scripts that need the letter initiate through initiateByLetter.

// newScriptedShards builds the two-shard runtime with the given node
// values (four of them).
func newScriptedShards(tb testing.TB, values []float64, mut func(*RuntimeConfig)) *Runtime {
	tb.Helper()
	return newScriptedRuntime(tb, len(values), func(c *RuntimeConfig) {
		c.Workers = 2
		c.Value = func(i int) float64 { return values[i] }
		if mut != nil {
			mut(c)
		}
	})
}

// handleMail has shard s handle every letter in its mailbox, as a round
// does, and returns how many it handled.
func handleMail(s *rshard) int {
	got := s.mail.take(nil)
	for i := range got {
		s.handleMessage(&got[i].m, got[i].from, got[i].to)
		s.drainLocal()
	}
	s.localDelivered += uint64(len(got))
	return len(got)
}

// initiateByLetter runs shard s's initiate for local node li with the
// armed partner peer − 1, a node of a sibling shard, while that shard's
// round lock is held — as when its owner is mid-round — so fuse's
// TryLock fails and the push goes out as a letter.
func initiateByLetter(tb testing.TB, s *rshard, li int, now float64, peer int32) {
	tb.Helper()
	t := s.rt.shardOf(int(peer - 1))
	if t == s {
		tb.Fatalf("node %d shares shard %d with node %d", peer-1, s.id, s.lo+li)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.initiate(li, now, peer)
}

// timeOut fires shard s's earliest reply deadline.
func timeOut(t *testing.T, s *rshard) {
	t.Helper()
	if s.deadlines.n == 0 {
		t.Fatal("no reply deadline armed")
	}
	s.handleDeadline(s.deadlines.pop(), 1)
}

// mass returns Σ of field 0 over every hosted node.
func mass(rt *Runtime) float64 {
	var sum float64
	for _, s := range rt.shards {
		for li := range s.nodes {
			sum += s.state(li)[0]
		}
	}
	return sum
}

// TestTransferInjectMidExchangeMovesMassByDelta: an InjectValue that
// lands while the node's exchange is in flight moves Σ by exactly the
// delta. Node 0 (4) pushes to node 2 (20); the injection raises node 0's
// value by 16 before node 2 serves; the reply completes the exchange.
func TestTransferInjectMidExchangeMovesMassByDelta(t *testing.T) {
	rt := newScriptedShards(t, []float64{4, 12, 20, 12}, nil)
	s0, s1 := rt.shards[0], rt.shards[1]
	initiateByLetter(t, s0, 0, 0, 1+2)
	rt.InjectValue(0, 0, 20)
	s0.postLocked()
	handleMail(s1)
	s1.postLocked()
	handleMail(s0)
	if got := mass(rt); got != 64 {
		t.Fatalf("Σ = %g after injecting +16 into Σ = 48, want 64", got)
	}
	if st := rt.Stats(); st.Replies != 1 {
		t.Fatalf("stats %+v, want the exchange completed", st)
	}
}

// TestTransferLateReplyAfterServedPush: node 0 (4) pushes to node 2
// (20) and times out; node 3 (12) then pushes to node 0, which serves
// it; node 2 serves the old push only now, and its reply lands last. The
// late reply must still complete node 0's half: Σ stays 48.
func TestTransferLateReplyAfterServedPush(t *testing.T) {
	rt := newScriptedShards(t, []float64{4, 12, 20, 12}, nil)
	s0, s1 := rt.shards[0], rt.shards[1]
	initiateByLetter(t, s0, 0, 0, 1+2)
	timeOut(t, s0)
	initiateByLetter(t, s1, 1, 0, 1+0)
	s1.postLocked()
	handleMail(s0) // node 0 serves node 3's push
	s0.postLocked()
	handleMail(s1) // node 3 takes its reply, node 2 serves node 0's push
	s1.postLocked()
	handleMail(s0) // node 0's late reply
	if got := mass(rt); got != 48 {
		t.Fatalf("Σ = %g, want 48: the late reply leaked", got)
	}
	if st := rt.Stats(); st.Timeouts != 1 || st.LateReplies != 1 || st.Served != 2 {
		t.Fatalf("stats %+v, want one timeout, one late reply, two served pushes", st)
	}
}

// TestTransferLateReplyAfterReinitiation: node 0 (4) pushes to node 2
// (20), node 2 serves, node 0 times out and re-initiates with node 1
// (12) in its own shard, a fused exchange; then node 2's reply lands.
// Σ stays 48 (dropping the reply would leave 40).
func TestTransferLateReplyAfterReinitiation(t *testing.T) {
	rt := newScriptedShards(t, []float64{4, 12, 20, 12}, nil)
	s0, s1 := rt.shards[0], rt.shards[1]
	initiateByLetter(t, s0, 0, 0, 1+2)
	s0.postLocked()
	handleMail(s1)
	timeOut(t, s0)
	s0.initiate(0, 1, 1+1)
	if len(s0.local) != 0 {
		t.Fatal("the same-shard re-initiation was not fused")
	}
	s1.postLocked()
	handleMail(s0)
	if got := mass(rt); got != 48 {
		t.Fatalf("Σ = %g, want 48: the late reply leaked", got)
	}
	if st := rt.NodeStats(0); st.LateReplies != 1 || st.Replies != 1 {
		t.Fatalf("node 0 stats %+v, want one late reply and one fused reply", st)
	}
}

// TestTransferLateReplyAtMostOnce pins that a reply applies at most
// once, and only to the life and epoch of the node that pushed: node 0
// (4) pushes to node 2 (20), which serves; then the reply is delivered
// twice, on time or after the deadline, or after node 0 was crashed and
// revived, or after node 0 restarted into a newer epoch.
func TestTransferLateReplyAtMostOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		late    bool           // the deadline fires before the reply lands
		between func(*Runtime) // runs after node 2 served, before delivery
		twice   bool           // the reply is delivered twice
		want    float64        // Σ after delivery
		wantA   float64        // node 0's state after delivery
		stats   func(Stats) bool
	}{
		{name: "duplicate on time", twice: true, want: 48, wantA: 12,
			stats: func(st Stats) bool { return st.Replies == 1 && st.LateReplies == 0 }},
		{name: "duplicate late", late: true, twice: true, want: 48, wantA: 12,
			stats: func(st Stats) bool { return st.Replies == 0 && st.LateReplies == 1 }},
		{name: "after a revive", late: true, between: func(rt *Runtime) {
			rt.FailNode(0)
			rt.ReviveNode(0)
		}, want: 40, wantA: 4,
			stats: func(st Stats) bool { return st.Replies == 0 && st.LateReplies == 0 && st.LateGivenUp == 0 }},
		{name: "after a newer epoch", late: true, between: func(rt *Runtime) {
			s := rt.shards[0]
			s.nodes[0].tracker.Observe(1)
			s.restart(0)
		}, want: 40, wantA: 4,
			stats: func(st Stats) bool { return st.LateReplies == 0 && st.StaleDropped == 1 }},
		{name: "on time after a newer epoch", between: func(rt *Runtime) {
			s := rt.shards[0]
			s.nodes[0].tracker.Observe(1)
			s.restart(0)
		}, want: 40, wantA: 4,
			stats: func(st Stats) bool { return st.Replies == 0 && st.StaleDropped == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newScriptedShards(t, []float64{4, 12, 20, 12}, nil)
			s0, s1 := rt.shards[0], rt.shards[1]
			initiateByLetter(t, s0, 0, 0, 1+2)
			s0.postLocked()
			handleMail(s1)
			if tc.late {
				timeOut(t, s0)
			}
			if tc.between != nil {
				tc.between(rt)
			}
			if tc.twice {
				l := s1.outbox[0][0]
				l.m.Fields = append([]float64(nil), l.m.Fields...)
				s1.outbox[0] = append(s1.outbox[0], l)
			}
			s1.postLocked()
			handleMail(s0)
			if got, a := mass(rt), rt.NodeState(0)[0]; got != tc.want || a != tc.wantA {
				t.Fatalf("Σ = %g, node 0 = %g; want %g and %g", got, a, tc.want, tc.wantA)
			}
			if st := rt.NodeStats(0); !tc.stats(st) {
				t.Fatalf("node 0 stats %+v", st)
			}
		})
	}
}

// TestTransferLateReplyGivenUp pins the one-slot timed-out record: node
// 0 (4) times out on two pushes to node 2 (20) before either reply
// lands. Node 2 serves both, replying d = 8 and then d = 4; the newer
// timeout overwrote the first seq, so only the second reply applies and
// the first one's 8 leaves Σ — the price of one slot (ROADMAP 16(a)),
// counted once as a reply given up.
func TestTransferLateReplyGivenUp(t *testing.T) {
	rt := newScriptedShards(t, []float64{4, 12, 20, 12}, nil)
	s0, s1 := rt.shards[0], rt.shards[1]
	initiateByLetter(t, s0, 0, 0, 1+2)
	timeOut(t, s0)
	initiateByLetter(t, s0, 0, 0, 1+2)
	timeOut(t, s0)
	s0.postLocked()
	handleMail(s1)
	s1.postLocked()
	if got := handleMail(s0); got != 2 {
		t.Fatalf("%d replies delivered, want 2", got)
	}
	if got, a, b := mass(rt), rt.NodeState(0)[0], rt.NodeState(2)[0]; got != 40 || a != 8 || b != 8 {
		t.Fatalf("Σ = %g, node 0 = %g, node 2 = %g; want 40, 8 and 8", got, a, b)
	}
	if st := rt.NodeStats(0); st.Timeouts != 2 || st.LateReplies != 1 || st.LateGivenUp != 1 || st.Replies != 0 {
		t.Fatalf("node 0 stats %+v", st)
	}
	if st := rt.Stats(); st.LateGivenUp != 1 {
		t.Fatalf("runtime stats %+v, want one reply given up", st)
	}
}

// TestTransferNonHonestPaths pins the exchange's Byzantine and robust
// paths on exact dyadic states, with the partner in the initiator's own
// shard (where fuse declines and the letters run in-round) and in the
// sibling shard (through the mailboxes). Node 0 (4) initiates with its
// partner (20); the two other nodes hold 12. The max-first rows gossip
// Max in field 0, whose reply carries the partner's pre-merge value, not
// a transfer: the gate must clamp and trim that value itself.
func TestTransferNonHonestPaths(t *testing.T) {
	narrow := robust.TrimState{Scale: 1} // admits |delta| ≤ 8 at K = 8
	mid := robust.TrimState{Scale: 2.5}  // admits |delta| ≤ 20 at K = 8
	wide := robust.TrimState{Scale: 100} // admits anything here
	id := func(v float64) float64 { return v }
	maxFirst := core.MustSchema(
		core.Field{Name: "max", Agg: core.Max, Init: id},
		core.Field{Name: "avg", Agg: core.Average, Init: id})
	for _, tc := range []struct {
		name   string
		schema *core.Schema // nil: core.AverageSchema
		setup  func(rt *Runtime, p int)
		// between runs after the push left, before the partner serves.
		between      func(rt *Runtime)
		wantA, wantP float64
		want         Stats // runtime-wide counters that must match
		rejected     uint64
	}{
		{
			// The responder answers (pinned − a)/2 = (100 − 4)/2 and
			// adopts nothing.
			name: "byzantine responder",
			setup: func(rt *Runtime, p int) {
				if err := rt.SetAdversaries(sim.AdvExtreme, []int{p}, 100, 0); err != nil {
					t.Fatal(err)
				}
			},
			wantA: 52, wantP: 100,
			want: Stats{Initiated: 1, Replies: 1, Served: 1},
		},
		{
			// The initiator pushes its pinned 100; the partner adopts
			// 20 − (20 − 100)/2 and the initiator drops the transfer.
			name: "byzantine initiator",
			setup: func(rt *Runtime, p int) {
				if err := rt.SetAdversaries(sim.AdvExtreme, []int{0}, 100, 0); err != nil {
					t.Fatal(err)
				}
			},
			wantA: 100, wantP: 60,
			want: Stats{Initiated: 1, Replies: 1, Served: 1},
		},
		{
			// The partner serves honestly (d = 8); the initiator clamps
			// the implied report 4 + 2·8 = 20 to 12 and applies
			// (12 − 4)/2 = 4 on top of the 4 injected in between.
			name: "clamp on the implied report",
			setup: func(rt *Runtime, p int) {
				rt.SetRobust(robust.Policy{Clamp: true, ClampMin: 0, ClampMax: 12})
			},
			between: func(rt *Runtime) { rt.InjectValue(0, 0, 8) },
			wantA:   12, wantP: 12,
			want: Stats{Initiated: 1, Replies: 1, Served: 1},
		},
		{
			// The partner's band rejects the delta 4 − 20: it nacks and
			// neither side moves.
			name: "passive trim reject",
			setup: func(rt *Runtime, p int) {
				rt.SetRobust(robust.Policy{Trim: true, TrimK: 8})
				setTrim(rt, 0, wide)
				setTrim(rt, p, narrow)
			},
			wantA: 4, wantP: 20,
			want:     Stats{Initiated: 1, PeerBusy: 1},
			rejected: 1,
		},
		{
			// The partner serves (d = 8); the initiator's band rejects
			// the implied delta 2d = 16 and drops only its own half.
			name: "active trim reject",
			setup: func(rt *Runtime, p int) {
				rt.SetRobust(robust.Policy{Trim: true, TrimK: 8})
				setTrim(rt, 0, narrow)
				setTrim(rt, p, wide)
			},
			wantA: 4, wantP: 12,
			want:     Stats{Initiated: 1, Served: 1},
			rejected: 1,
		},
		{
			// The partner keeps max(20, 4) and replies its pre-merge
			// 20; the initiator clamps that report to 12 and adopts
			// max(4, 12).
			name:   "max-first clamp",
			schema: maxFirst,
			setup: func(rt *Runtime, p int) {
				rt.SetRobust(robust.Policy{Clamp: true, ClampMin: 0, ClampMax: 12})
			},
			wantA: 12, wantP: 20,
			want: Stats{Initiated: 1, Replies: 1, Served: 1},
		},
		{
			// The initiator's band admits the report's distance
			// 20 − 4 = 16 and adopts the max.
			name:   "max-first active trim admits",
			schema: maxFirst,
			setup: func(rt *Runtime, p int) {
				rt.SetRobust(robust.Policy{Trim: true, TrimK: 8})
				setTrim(rt, 0, mid)
				setTrim(rt, p, wide)
			},
			wantA: 20, wantP: 20,
			want: Stats{Initiated: 1, Replies: 1, Served: 1},
		},
		{
			// The same distance 16 is outside the narrow band: the
			// initiator keeps its 4, the partner its 20.
			name:   "max-first active trim reject",
			schema: maxFirst,
			setup: func(rt *Runtime, p int) {
				rt.SetRobust(robust.Policy{Trim: true, TrimK: 8})
				setTrim(rt, 0, narrow)
				setTrim(rt, p, wide)
			},
			wantA: 4, wantP: 20,
			want:     Stats{Initiated: 1, Served: 1},
			rejected: 1,
		},
	} {
		for _, p := range []int{1, 2} {
			layout := map[int]string{1: "same shard", 2: "cross shard"}[p]
			t.Run(tc.name+"/"+layout, func(t *testing.T) {
				vals := []float64{4, 12, 12, 12}
				vals[p] = 20
				rt := newScriptedShards(t, vals, func(c *RuntimeConfig) {
					if tc.schema != nil {
						c.Schema = tc.schema
					}
				})
				tc.setup(rt, p)
				s0, s1 := rt.shards[0], rt.shards[1]
				s0.initiate(0, 0, int32(1+p))
				if p == 1 && len(s0.local) != 1 {
					t.Fatal("the same-shard exchange was fused, want it declined to letters")
				}
				if tc.between != nil {
					tc.between(rt)
				}
				s0.drainLocal()
				s0.postLocked()
				handleMail(s1)
				s1.postLocked()
				handleMail(s0)
				if a, b := rt.NodeState(0)[0], rt.NodeState(p)[0]; a != tc.wantA || b != tc.wantP {
					t.Fatalf("initiator %g, partner %g; want %g and %g", a, b, tc.wantA, tc.wantP)
				}
				if st := rt.Stats(); st != tc.want {
					t.Fatalf("stats %+v, want %+v", st, tc.want)
				}
				if got := rt.RobustRejected(); got != tc.rejected {
					t.Fatalf("robust rejects %d, want %d", got, tc.rejected)
				}
			})
		}
	}
}

// setTrim installs node i's trim acceptance band.
func setTrim(rt *Runtime, i int, band robust.TrimState) {
	s := rt.shardOf(i)
	s.cold[i-s.lo].trim = band
}
