package engine

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/membership"
	"repro/internal/xrand"
)

// scheduleState is a deep copy of everything a shard's schedule and
// stream hold, for checking that the look-ahead moves none of it.
type scheduleState struct {
	n, head int
	cursor  int64
	due     []wake
	buckets [][]wake
	ring    []deadline
	ringAt  [2]int
	rng     xrand.Rand
}

func snapshotSchedule(s *rshard) scheduleState {
	st := scheduleState{
		n: s.wakes.n, head: s.wakes.head, cursor: s.wakes.cursor,
		due:    slices.Clone(s.wakes.due),
		ring:   slices.Clone(s.deadlines.buf),
		ringAt: [2]int{s.deadlines.head, s.deadlines.n},
		rng:    s.rng,
	}
	for _, b := range s.wakes.buckets {
		st.buckets = append(st.buckets, slices.Clone(b))
	}
	return st
}

// popDue pops every deadline and wake due by now, as a round with no
// budget fires them, and returns the nodes and armed partners the
// handlers would reach, sorted.
func popDue(s *rshard, now float64) []int32 {
	var got []int32
	for {
		if d := s.deadlines.next(); d <= now && d <= s.wakes.next() {
			got = append(got, s.deadlines.pop().node)
		} else if s.wakes.next() <= now {
			w := s.wakes.pop()
			got = appendWake(got, &w)
		} else {
			break
		}
	}
	slices.Sort(got)
	return got
}

// lookAheadAt runs the shard's look-ahead at now with the given budget,
// checks that it left the schedule and the stream exactly as it found
// them, and returns what it listed, sorted.
func lookAheadAt(t *testing.T, s *rshard, now float64, budget int) []int32 {
	t.Helper()
	before := snapshotSchedule(s)
	s.lookAhead(now, budget)
	if after := snapshotSchedule(s); !reflect.DeepEqual(before, after) {
		t.Fatalf("now=%g: the look-ahead moved the schedule or the stream:\nbefore %+v\nafter  %+v", now, before, after)
	}
	return slices.Sorted(slices.Values(s.ahead))
}

// TestLookAheadListsDueEvents pins the round look-ahead's coverage and
// purity on an unstarted one-worker runtime. Its 64 nodes make a
// calendar of 4 slots of 0.5 s (a 2 s year). The script spreads wakes
// over five slots — the cursor slot's sorted run with one entry past
// now, later slots, a wake a year ahead of a due slot sharing its
// bucket, and one due in the same slot as a wake that is not — beside
// due and not-yet-due deadlines. At every checkpoint the look-ahead must
// list exactly the nodes and armed partners that popping up to now then
// fires, and must leave the calendar, the ring and the stream untouched.
// A seeded phase then repeats the check over random pushes and clock
// steps of up to several years, some pushes already past due, and
// checks that a budget caps the list.
func TestLookAheadListsDueEvents(t *testing.T) {
	rt := newScriptedRuntime(t, 64, nil)
	s := rt.shards[0]
	for _, w := range []wake{
		{at: 0.1, node: 0, peer: 1 + 10}, // the cursor slot's run, due at 0.2
		{at: 0.4, node: 1, peer: 1 + 11}, // the cursor slot's run, past now at 0.2
		{at: 0.7, node: 2},               // slot 1, no partner armed
		{at: 1.2, node: 3, peer: 1 + 13}, // slot 2
		{at: 1.6, node: 4, peer: 1 + 14}, // slot 3, due at 1.7
		{at: 1.8, node: 5, peer: 1 + 15}, // slot 3, not due at 1.7
		{at: 2.6, node: 6, peer: 1 + 16}, // slot 5: bucket 1, a year after slot 1
		{at: 4.3, node: 7, peer: 1 + 17}, // slot 8: two years ahead
	} {
		s.wakes.push(w)
	}
	for _, d := range []deadline{{at: 0.15, node: 20}, {at: 1.0, node: 21}, {at: 1.75, node: 22}, {at: 3.0, node: 23}} {
		s.deadlines.push(d)
	}
	for _, c := range []struct {
		now  float64
		want []int32
	}{
		{now: 0.2, want: []int32{0, 10, 20}},
		{now: 1.7, want: []int32{1, 2, 3, 4, 11, 13, 14, 21}},
		{now: 1.9, want: []int32{5, 15, 22}}, // the cursor now sits in slot 3
		{now: 10, want: []int32{6, 7, 16, 17, 23}},
	} {
		got := lookAheadAt(t, s, c.now, 1024)
		if !slices.Equal(got, c.want) {
			t.Fatalf("now=%g: the look-ahead listed %v, want %v", c.now, got, c.want)
		}
		if fired := popDue(s, c.now); !slices.Equal(fired, c.want) {
			t.Fatalf("now=%g: popping fired %v, want %v", c.now, fired, c.want)
		}
	}

	rng := xrand.New(41)
	now := 10.0
	for step := range 3000 {
		for range rng.Intn(12) {
			w := wake{at: now + (rng.Float64()-0.05)*float64(1+rng.Intn(7)), node: int32(rng.Intn(64))}
			if rng.Intn(4) != 0 {
				w.peer = 1 + int32(rng.Intn(64))
			}
			s.wakes.push(w)
		}
		for range rng.Intn(4) {
			s.deadlines.push(deadline{at: now + 0.5, node: int32(rng.Intn(64))})
		}
		now += rng.ExpFloat64() * 0.4
		if rng.Intn(50) == 0 {
			now += 2 * float64(1+rng.Intn(3)) // whole calendar years
		}
		budget := 1 + rng.Intn(8)
		capped := lookAheadAt(t, s, now, budget)
		got := lookAheadAt(t, s, now, 1<<20)
		fired := popDue(s, now)
		if !slices.Equal(got, fired) {
			t.Fatalf("step %d, now=%g: the look-ahead listed %v, popping fired %v", step, now, got, fired)
		}
		if len(capped) > min(len(got), 3*budget) {
			t.Fatalf("step %d: a budget of %d listed %d nodes of %d due", step, budget, len(capped), len(got))
		}
		for _, i := range capped {
			if _, ok := slices.BinarySearch(got, i); !ok {
				t.Fatalf("step %d, now=%g: a budget of %d listed node %d, which is not due", step, now, budget, i)
			}
		}
	}
}

// TestArmedPeerDrivesTheExchange pins the partner armed with a wake. On
// an unstarted two-worker runtime, scripted handleWake steps must fuse
// with exactly w.peer − 1 when it shares the shard or its shard's round
// lock is free, and post a push letter to it when that lock is held (on
// every other cross-shard step), and the re-armed wake must carry a fresh
// partner that is never the node itself. On one worker, the partners one
// node's successive wakes carry over 126 000 draws must pass a χ²
// uniformity check over the other 63 nodes. A failed node must re-arm
// with no partner, and a sampled node is never armed with one.
func TestArmedPeerDrivesTheExchange(t *testing.T) {
	const size = 64
	t.Run("exchange", func(t *testing.T) {
		rt := newScriptedRuntime(t, size, func(c *RuntimeConfig) { c.Workers = 2 })
		script := xrand.New(5)
		for k := range 4000 {
			s := rt.shards[script.Intn(2)]
			i := s.lo + script.Intn(s.hi-s.lo)
			p := completePeer(script, size, i)
			ps := rt.shardOf(p)
			before := rt.NodeStats(p)
			held := ps != s && k%2 == 1
			if held {
				ps.mu.Lock()
			}
			s.handleWake(wake{at: float64(k), node: int32(i), peer: 1 + int32(p)}, float64(k))
			if held {
				ps.mu.Unlock()
			}
			after := rt.NodeStats(p)
			if !held {
				if got := after.Served + after.BusyDropped - before.Served - before.BusyDropped; got != 1 {
					t.Fatalf("step %d: node %d's wake armed with %d fused %d times with it", k, i, p, got)
				}
				if out := s.outbox[ps.id]; len(out) != 0 {
					t.Fatalf("step %d: node %d's fused wake posted %+v", k, i, out)
				}
			} else {
				out := s.outbox[ps.id]
				if len(out) != 1 || out[0].to != int32(p) {
					t.Fatalf("step %d: node %d's wake armed with %d posted %+v", k, i, p, out)
				}
				clear(out)
				s.outbox[ps.id] = out[:0]
				s.nodes[i-s.lo].pendingSeq = 0 // as if the reply had come back
			}
			next := s.wakes.pop()
			if next.node != int32(i) || next.peer < 1 || next.peer > size || next.peer-1 == int32(i) {
				t.Fatalf("step %d: node %d re-armed %+v", k, i, next)
			}
		}
	})

	t.Run("uniform", func(t *testing.T) {
		rt := newScriptedRuntime(t, size, nil)
		s := rt.shards[0]
		const draws = 126_000
		var counts [size]int
		s.arm(0, 0)
		for range draws {
			w := s.wakes.pop()
			if w.peer < 2 || w.peer > size {
				t.Fatalf("node 0 armed with partner %d", w.peer-1)
			}
			counts[w.peer-1]++
			s.handleWake(w, w.at)
		}
		expect := float64(draws) / (size - 1)
		chi2 := 0.0
		for _, c := range counts[1:] {
			chi2 += (float64(c) - expect) * (float64(c) - expect) / expect
		}
		// 62 degrees of freedom: the 0.1 % upper tail starts near 102.
		if chi2 > 102 {
			t.Fatalf("χ² = %.1f over 62 degrees of freedom: partner counts %v", chi2, counts)
		}
		t.Logf("χ² = %.1f over 62 degrees of freedom", chi2)
	})

	t.Run("failed and sampled", func(t *testing.T) {
		rt := newScriptedRuntime(t, size, nil)
		s := rt.shards[0]
		rt.FailNode(3)
		s.handleWake(wake{at: 1, node: 3, peer: 1 + 9}, 1)
		if w := s.wakes.pop(); w.peer != 0 {
			t.Fatalf("failed node re-armed with partner %d", w.peer-1)
		}
		if st := rt.NodeStats(9); st.Served != 0 {
			t.Fatalf("a failed node's wake exchanged with its armed partner: %+v", st)
		}
		rt.ReviveNode(3)
		s.handleWake(wake{at: 2, node: 3}, 2)
		if st := rt.NodeStats(3); st.Initiated != 1 || st.Replies != 1 {
			t.Fatalf("a revived node's unarmed wake did not draw a partner and exchange: %+v", st)
		}
		if w := s.wakes.pop(); w.peer == 0 || w.peer-1 == 3 {
			t.Fatalf("revived node re-armed %+v", w)
		}

		dir := newScriptedRuntime(t, size, func(c *RuntimeConfig) {
			c.Samplers = func(i int, _ string, local []string) (membership.Sampler, error) {
				return membership.NewDirectory(local, i)
			}
		})
		ds := dir.shards[0]
		ds.arm(0, 1)
		if w := ds.wakes.pop(); w.peer != 0 {
			t.Fatalf("a sampled node was armed with partner %d", w.peer-1)
		}
	})
}
