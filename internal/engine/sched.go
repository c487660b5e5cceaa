package engine

import "math"

// A shard's schedule holds exactly two kinds of timers, and neither needs
// a general priority queue. Reply deadlines are all ReplyTimeout long and
// armed at the round's monotonic clock, so they come due in the order
// they were armed: a FIFO ring. Wakes are one per node, re-armed a wait
// (Δt, or an exponential draw with mean Δt) after they fire: a calendar
// queue whose year spans two cycles. Both pop in exact non-decreasing
// time order, and a push or pop costs O(1) amortized instead of the
// O(log n) sift of the binary heap they replace — which, holding every
// wake plus every not-yet-due dead deadline, was the deepest structure
// on the exchange path.

// wake is a node's next exchange initiation. peer is 1 + the partner
// drawn when the wake was armed, 0 for none (a sampled or failed node
// draws at initiation); it fills what was padding, so a wake stays 16 B.
type wake struct {
	at   float64
	node int32
	peer int32
}

// deadline is the reply deadline of the exchange seq that node armed.
type deadline struct {
	at   float64
	seq  uint64
	node int32
}

// deadlineRing is a FIFO of reply deadlines. Its owner pushes them in
// non-decreasing time; a push earlier than the tail is clamped to the
// tail's time, so an out-of-order deadline fires late — never early,
// never lost — and the front is always the earliest.
type deadlineRing struct {
	buf     []deadline // len is a power of two
	head, n int
}

func newDeadlineRing(capacity int) deadlineRing {
	return deadlineRing{buf: make([]deadline, nextPow2(capacity))}
}

// push appends d, doubling the ring when it is full.
func (r *deadlineRing) push(d deadline) {
	mask := len(r.buf) - 1
	if r.n > 0 {
		d.at = max(d.at, r.buf[(r.head+r.n-1)&mask].at)
	}
	if r.n == len(r.buf) {
		grown := make([]deadline, 2*len(r.buf))
		copy(grown, r.buf[r.head:])
		copy(grown[len(r.buf)-r.head:], r.buf[:r.head])
		r.buf, r.head, mask = grown, 0, len(grown)-1
	}
	r.buf[(r.head+r.n)&mask] = d
	r.n++
}

// next returns the front deadline's time, +Inf when the ring is empty.
func (r *deadlineRing) next() float64 {
	if r.n == 0 {
		return math.Inf(1)
	}
	return r.buf[r.head].at
}

// pop removes and returns the front deadline. It panics on an empty
// ring; callers gate on next.
func (r *deadlineRing) pop() deadline {
	if r.n == 0 {
		panic("engine: pop from an empty deadline ring")
	}
	d := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return d
}

// appendDue appends the node of every deadline due by now, up to limit
// of them, to dst — a read-only look at the fronts pop would return.
func (r *deadlineRing) appendDue(dst []int32, now float64, limit int) []int32 {
	mask := len(r.buf) - 1
	for k := 0; k < min(r.n, limit); k++ {
		d := &r.buf[(r.head+k)&mask]
		if d.at > now {
			break
		}
		dst = append(dst, d.node)
	}
	return dst
}

// calendar is a calendar queue of wakes. Time is cut into slots of
// width seconds, slot k living in bucket k mod len(buckets). The cursor
// slot's entries, and any pushed for a slot already passed, sit sorted
// (by insertion) in due; every other entry waits unsorted in its bucket,
// including entries a whole year or more ahead, which stay in place
// until the cursor comes round to their slot. A year without a single
// entry makes the cursor jump straight to the earliest one.
type calendar struct {
	buckets [][]wake
	mask    int64
	inv     float64 // 1/width
	cursor  int64   // the slot due is drawn from
	due     []wake  // due[head:] sorted by at, all in slots ≤ cursor
	head    int
	n       int
}

// newCalendar sizes a calendar for size nodes waking about once every
// cycle seconds: one bucket per ~16 nodes, rounded up to a power of two,
// and a year of two cycles, so a constant-wait shard keeps about 32
// wakes in each of half its buckets. All buckets share one pre-sized
// backing array, so a steady shard never allocates.
func newCalendar(size int, cycle float64) calendar {
	nb := nextPow2(max(1, size/16))
	per := 2*size/nb + 8
	backing := make([]wake, nb*per)
	c := calendar{
		buckets: make([][]wake, nb),
		mask:    int64(nb - 1),
		inv:     float64(nb) / (2 * cycle),
		due:     make([]wake, 0, 2*per),
	}
	for i := range c.buckets {
		c.buckets[i] = backing[i*per : i*per : (i+1)*per]
	}
	return c
}

// slot returns the calendar slot of time at.
func (c *calendar) slot(at float64) int64 { return int64(at * c.inv) }

// push schedules w.
func (c *calendar) push(w wake) {
	c.n++
	if k := c.slot(w.at); k > c.cursor {
		b := &c.buckets[k&c.mask]
		*b = append(*b, w)
		return
	}
	c.insertDue(w)
}

// insertDue places w into the sorted run due[head:], after any entry
// with the same time.
func (c *calendar) insertDue(w wake) {
	c.due = append(c.due, w)
	i := len(c.due) - 1
	for i > c.head && c.due[i-1].at > w.at {
		c.due[i] = c.due[i-1]
		i--
	}
	c.due[i] = w
}

// next returns the earliest wake's time, +Inf when the calendar is
// empty. It may advance the cursor.
func (c *calendar) next() float64 {
	if c.n == 0 {
		return math.Inf(1)
	}
	if c.head == len(c.due) {
		c.advance()
	}
	return c.due[c.head].at
}

// pop removes and returns the earliest wake. It panics on an empty
// calendar; callers gate on next.
func (c *calendar) pop() wake {
	if c.n == 0 {
		panic("engine: pop from an empty calendar")
	}
	if c.head == len(c.due) {
		c.advance()
	}
	w := c.due[c.head]
	c.head++
	c.n--
	if c.head == len(c.due) {
		c.due, c.head = c.due[:0], 0
	}
	return w
}

// advance moves the cursor to the next slot holding an entry and sorts
// that slot's entries into due. The caller has checked that due is
// exhausted and the calendar is not empty.
func (c *calendar) advance() {
	for visited := 0; len(c.due) == 0; visited++ {
		if visited == len(c.buckets) {
			c.cursor = c.slot(c.earliest()) - 1
		}
		c.cursor++
		i := c.cursor & c.mask
		later := c.buckets[i][:0]
		for _, w := range c.buckets[i] {
			if c.slot(w.at) <= c.cursor {
				c.insertDue(w)
			} else {
				later = append(later, w)
			}
		}
		c.buckets[i] = later
	}
}

// appendDue appends the node and armed partner (peer − 1) of up to limit
// wakes due by now to dst, without moving the cursor, the due run or any
// bucket: first the sorted due run, then every bucket from the slot
// after the cursor through now's slot — at most one year of buckets,
// which is all of them — skipping entries not yet due, among them those
// a year or more ahead. Within a bucket the order is the bucket's, not
// time's, so a limit cuts a set close to, not exactly, the earliest.
func (c *calendar) appendDue(dst []int32, now float64, limit int) []int32 {
	listed := 0
	for i := c.head; i < len(c.due) && listed < limit; i++ {
		if c.due[i].at > now {
			return dst
		}
		dst = appendWake(dst, &c.due[i])
		listed++
	}
	last := min(c.slot(now), c.cursor+int64(len(c.buckets)))
	for k := c.cursor + 1; k <= last && listed < limit; k++ {
		b := c.buckets[k&c.mask]
		for i := 0; i < len(b) && listed < limit; i++ {
			if b[i].at <= now {
				dst = appendWake(dst, &b[i])
				listed++
			}
		}
	}
	return dst
}

// appendWake appends w's node and, when one is armed, its partner.
func appendWake(dst []int32, w *wake) []int32 {
	dst = append(dst, w.node)
	if w.peer != 0 {
		dst = append(dst, w.peer-1)
	}
	return dst
}

// earliest returns the smallest time held in any bucket.
func (c *calendar) earliest() float64 {
	at := math.Inf(1)
	for _, b := range c.buckets {
		for _, w := range b {
			at = min(at, w.at)
		}
	}
	return at
}

// nextPow2 returns the smallest power of two ≥ n (1 for n ≤ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
