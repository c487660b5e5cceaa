package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// TestShardScheduleMatchesHeap drives a shard's wake calendar and
// deadline ring through seeded random push/pop sequences beside a
// sim.EventHeap oracle holding the same wakes. The clock advances in
// steps, sometimes by several calendar years; every step pops what has
// come due, as a scheduler round does, and re-arms each popped wake by
// one of the pushes the runtime makes or could make: a constant or
// exponential wait, a wait longer than a whole calendar year, a past-due
// push (earlier than the clock), a push into the cursor's own slot. Each
// popped wake arms a deadline, a few of them out of order. The calendar
// must pop exactly the oracle's times, never an entry that is not yet
// due, each node at the time it was last pushed for; the ring must pop
// in non-decreasing order and every deadline exactly once, never before
// its own time; and after a final drain neither may hold anything.
func TestShardScheduleMatchesHeap(t *testing.T) {
	for _, tc := range []struct {
		size  int
		steps int
		long  float64 // share of re-arms beyond one calendar year
	}{
		{size: 1, steps: 2_000, long: 0.3},
		{size: 3, steps: 4_000, long: 0.5},
		{size: 64, steps: 20_000, long: 0.9},
		{size: 200, steps: 20_000, long: 0.02},
		{size: 5_000, steps: 20_000, long: 0.05},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("n=%d/seed=%d", tc.size, seed), func(t *testing.T) {
				checkSchedule(t, tc.size, tc.steps, tc.long, seed)
			})
		}
	}
}

func checkSchedule(t *testing.T, size, steps int, long float64, seed uint64) {
	const cycle, timeout = 1.0, 0.5
	year := 2 * cycle
	rng := xrand.New(seed)
	cal := newCalendar(size, cycle)
	ring := newDeadlineRing(1) // grows under the test
	oracle := sim.NewEventHeap(size)
	want := make([]float64, size) // each node's pending wake
	armed := []float64{}          // deadline seq → the time it was armed for
	fired := []bool{}             // deadline seq → popped
	push := func(node int32, at float64) {
		want[node] = at
		cal.push(wake{at: at, node: node})
		oracle.Push(sim.Event{At: at, Node: node})
	}
	for i := range size {
		push(int32(i), rng.Float64()*cycle)
	}
	// popDue is a scheduler round without a budget: deadlines and wakes
	// merged in time order, a deadline first on a tie.
	now, last := 0.0, 0.0
	popDue := func() {
		for {
			if d := ring.next(); d <= now && d <= cal.next() {
				dl := ring.pop()
				switch {
				case dl.at < last:
					t.Fatalf("deadline %d popped at %g after a timer at %g", dl.seq, dl.at, last)
				case armed[dl.seq] > dl.at:
					t.Fatalf("deadline %d armed for %g fired early at %g", dl.seq, armed[dl.seq], dl.at)
				case fired[dl.seq]:
					t.Fatalf("deadline %d popped twice", dl.seq)
				}
				fired[dl.seq], last = true, dl.at
				continue
			}
			if cal.next() > now {
				return
			}
			w, ev := cal.pop(), oracle.Pop()
			switch {
			case w.at != ev.At:
				t.Fatalf("calendar popped %g, oracle %g", w.at, ev.At)
			case w.at < last:
				t.Fatalf("wake popped at %g after a timer at %g", w.at, last)
			case want[w.node] != w.at:
				t.Fatalf("node %d popped at %g, was pushed for %g", w.node, w.at, want[w.node])
			}
			last = w.at
			var at float64
			switch r := rng.Float64(); {
			case r < long:
				at = w.at + year*(1+4*rng.Float64())
			case r < long+0.1:
				at = w.at + (now-w.at)*rng.Float64() // past due
			case r < long+0.2:
				at = w.at + 1e-3*year/float64(len(cal.buckets)) // the cursor's slot
			case r < long+0.6:
				at = w.at + cycle
			default:
				at = w.at + rng.ExpFloat64()*cycle
			}
			push(w.node, at)
			seq := uint64(len(armed))
			dl := now + timeout
			if rng.Float64() < 0.02 {
				dl -= timeout * rng.Float64() // out of order: fires late
			}
			armed, fired = append(armed, dl), append(fired, false)
			ring.push(deadline{at: dl, seq: seq, node: w.node})
		}
	}
	for range steps {
		switch r := rng.Float64(); {
		case r < 0.01:
			now += year * (1 + 3*rng.Float64())
		case r < 0.5:
			now += rng.ExpFloat64() * cycle / float64(size)
		}
		popDue()
		if cal.next() <= now || ring.next() <= now {
			t.Fatalf("a timer due by %g survived the round", now)
		}
		if cal.n != oracle.Len() {
			t.Fatalf("calendar holds %d wakes, oracle %d", cal.n, oracle.Len())
		}
	}
	now = math.Inf(1)
	drained := 0
	for cal.n > 0 {
		w, ev := cal.pop(), oracle.Pop()
		if w.at != ev.At {
			t.Fatalf("final drain: calendar popped %g, oracle %g", w.at, ev.At)
		}
		drained++
	}
	if drained != size || oracle.Len() != 0 || !math.IsInf(cal.next(), 1) {
		t.Fatalf("final drain: %d wakes, want %d (oracle left %d)", drained, size, oracle.Len())
	}
	for ring.n > 0 {
		dl := ring.pop()
		if fired[dl.seq] || armed[dl.seq] > dl.at {
			t.Fatalf("final drain: deadline %d fired twice or early", dl.seq)
		}
		fired[dl.seq] = true
	}
	for seq, ok := range fired {
		if !ok {
			t.Fatalf("deadline %d was lost", seq)
		}
	}
}

// scheduleStep is one exchange's worth of a shard's timer work in steady
// state: pop the earliest wake, reap the deadlines due by then, arm the
// exchange's deadline and the node's next wake.
func scheduleStep(cal *calendar, ring *deadlineRing, rng *xrand.Rand, seq *uint64, exp bool) {
	const cycle, timeout = 0.2, 0.1
	w := cal.pop()
	for ring.next() <= w.at {
		ring.pop()
	}
	*seq++
	ring.push(deadline{at: w.at + timeout, seq: *seq, node: w.node})
	wait := cycle
	if exp {
		wait = rng.ExpFloat64() * cycle
	}
	cal.push(wake{at: w.at + wait, node: w.node})
}

func newSteadySchedule(size int) (calendar, deadlineRing) {
	cal, ring := newCalendar(size, 0.2), newDeadlineRing(size)
	rng := xrand.New(uint64(size))
	for i := range size {
		cal.push(wake{at: rng.Float64() * 0.2, node: int32(i)})
	}
	return cal, ring
}

// TestShardScheduleSteadyStateAllocs pins the scheduler's share of the
// zero-allocation exchange path: once every bucket and the ring have
// reached their working size, arming and firing timers allocates
// nothing, at either wait policy.
func TestShardScheduleSteadyStateAllocs(t *testing.T) {
	const size = 4096
	for _, exp := range []bool{false, true} {
		cal, ring := newSteadySchedule(size)
		rng := xrand.New(3)
		var seq uint64
		step := func() { scheduleStep(&cal, &ring, rng, &seq, exp) }
		for range 20 * size {
			step()
		}
		if a := testing.AllocsPerRun(size, step); a != 0 {
			t.Errorf("exponential=%v: %g allocs per scheduled exchange, want 0", exp, a)
		}
	}
}

// BenchmarkShardSchedule times one exchange's timer work (scheduleStep)
// on a shard 5·10⁴ nodes deep — the depth of one live-paced shard — at
// both wait policies, against the binary sim.EventHeap the calendar and
// ring replaced, holding wakes and deadlines together as it used to.
func BenchmarkShardSchedule(b *testing.B) {
	const size = 50_000
	for _, exp := range []bool{false, true} {
		wait := "const"
		if exp {
			wait = "exp"
		}
		b.Run("wait="+wait+"/sched=calendar", func(b *testing.B) {
			cal, ring := newSteadySchedule(size)
			rng := xrand.New(3)
			var seq uint64
			for range 4 * size {
				scheduleStep(&cal, &ring, rng, &seq, exp)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				scheduleStep(&cal, &ring, rng, &seq, exp)
			}
		})
		b.Run("wait="+wait+"/sched=heap", func(b *testing.B) {
			h := sim.NewEventHeap(2 * size)
			rng := xrand.New(uint64(size))
			for i := range size {
				h.Push(sim.Event{At: rng.Float64() * 0.2, Node: int32(i)})
			}
			step := func() {
				ev := h.Pop()
				for ev.Node < 0 { // a deadline: reap it
					ev = h.Pop()
				}
				h.Push(sim.Event{At: ev.At + 0.1, Node: ^ev.Node})
				wait := 0.2
				if exp {
					wait = rng.ExpFloat64() * 0.2
				}
				h.Push(sim.Event{At: ev.At + wait, Node: ev.Node})
			}
			for range 4 * size {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				step()
			}
		})
	}
}
