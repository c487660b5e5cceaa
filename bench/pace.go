package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"time"
)

// ledger is the benchmark's own record of every node's local value: the
// moving truth the service's estimates are judged against.
type ledger struct {
	vals []float64
	sum  float64
}

// newLedger draws n initial values uniformly from [0, span).
func newLedger(rng *rand.Rand, n int, span float64) *ledger {
	l := &ledger{vals: make([]float64, n)}
	for i := range l.vals {
		l.vals[i] = rng.Float64() * span
		l.sum += l.vals[i]
	}
	return l
}

func (l *ledger) clone() *ledger {
	return &ledger{vals: append([]float64(nil), l.vals...), sum: l.sum}
}

func (l *ledger) set(node int, v float64) {
	l.sum += v - l.vals[node]
	l.vals[node] = v
}

func (l *ledger) mean() float64 { return l.sum / float64(len(l.vals)) }

// apply writes an operation's values.
func (l *ledger) apply(o *op) {
	for i, node := range o.nodes {
		l.set(node, o.values[i])
	}
}

// opKind is one of the three request types of the serve-mixed timetable.
type opKind uint8

const (
	opQuery   opKind = iota // GET /v1/query/avg
	opTrickle               // POST /v1/values: a few nodes re-written to their own value ± 10⁻³
	opStep                  // POST /v1/values: many nodes re-drawn — the moving truth
)

func (k opKind) String() string {
	switch k {
	case opQuery:
		return "query"
	case opTrickle:
		return "trickle"
	default:
		return "step"
	}
}

// op is one scheduled request. due is its send time relative to the
// window start; every latency is measured from there (open loop), so a
// stall delays the clock of every request queued behind it instead of
// hiding.
type op struct {
	due    time.Duration
	kind   opKind
	nodes  []int
	values []float64
	body   []byte // rendered POST body

	// meanAfter is the ledger's true mean once this write is applied;
	// deltaMean how far this write moved it.
	meanAfter float64
	deltaMean float64
}

const (
	valueSpan    = 1000.0 // step writes draw from [0, valueSpan)
	trickleNodes = 10
	trickleDelta = 1e-3
	// minStepShift is the smallest true-mean shift a generated step may
	// cause. A step settles when max−min ≤ 1 % of its shift; the
	// trickle writes alone hold max−min near 2·trickleDelta, so a
	// smaller shift would ask the stream to settle below the floor the
	// workload itself maintains, and would fail by construction.
	minStepShift = 0.5
)

// buildTimetable generates the open-loop request schedule for a window
// of length d from the seed: one request per slot, alternately a query
// and a trickle write, and every stepEvery a step write. led is the
// ledger at window start; it is advanced as the timetable is generated,
// so each write's values and the true mean after it are fixed here,
// before anything is sent. No step is scheduled in the last stepEvery of
// the window: each needs that long to settle.
//
// Each request is moved off its slot's grid point by up to ± one slot.
// The offsets are a seeded rotation of the golden-ratio sequence, not
// independent draws: write-to-visible latency is mostly the wait for
// the server's next per-cycle tick, so its median is only repeatable if
// the writes' phases cover the tick period evenly, and a grid that
// divides the cycle length (12.5 ms into 50 ms) would instead pin them
// to a few phases whose position changes from run to run.
func buildTimetable(seed uint64, sc scale, d time.Duration, led *ledger) []op {
	rng := rand.New(rand.NewPCG(seed, 0x5e12e))
	const golden = 0.6180339887498949
	u0 := rng.Float64()
	var ops []op
	for i := 0; ; i++ {
		grid := time.Duration(i) * sc.serveSlot
		if grid >= d {
			break
		}
		_, u := math.Modf(u0 + float64(i)*golden)
		due := grid + time.Duration((2*u-1)*float64(sc.serveSlot))
		due = min(max(due, 0), d-1)
		kind := opQuery
		if i%2 == 1 {
			kind = opTrickle
		}
		ops = append(ops, op{due: due, kind: kind})
	}
	for k := 1; time.Duration(k+1)*sc.serveStep <= d; k++ {
		// Half a slot off the grid, so a step never shares a due time
		// with a slot request.
		ops = append(ops, op{due: time.Duration(k)*sc.serveStep + sc.serveSlot/2, kind: opStep})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })

	// Writes apply in due order (one connection, sequential), so the
	// ledger advances as the values are drawn.
	n := len(led.vals)
	// pick draws k distinct nodes by a partial Fisher–Yates shuffle of
	// one reused index slice: a rand.Perm(n) per draw made the
	// generator's garbage the largest part of the process's peak RSS.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	pick := func(k int) []int {
		for i := 0; i < k; i++ {
			j := i + rng.IntN(n-i)
			idx[i], idx[j] = idx[j], idx[i]
		}
		return idx[:k]
	}
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case opQuery:
			continue
		case opTrickle:
			for len(o.nodes) < trickleNodes {
				node := rng.IntN(n)
				delta := trickleDelta
				if rng.IntN(2) == 0 {
					delta = -delta
				}
				o.nodes = append(o.nodes, node)
				o.values = append(o.values, led.vals[node]+delta)
			}
		case opStep:
			for {
				o.nodes, o.values = o.nodes[:0], o.values[:0]
				var shift float64
				for _, node := range pick(sc.stepNodes) {
					v := rng.Float64() * valueSpan
					o.nodes = append(o.nodes, node)
					o.values = append(o.values, v)
					shift += v - led.vals[node]
				}
				if math.Abs(shift)/float64(n) >= minStepShift {
					break
				}
			}
		}
		before := led.mean()
		led.apply(o)
		o.meanAfter = led.mean()
		o.deltaMean = o.meanAfter - before
		o.body = renderValuesBody(o.nodes, o.values)
	}
	return ops
}

// renderValuesBody renders a POST /v1/values request body.
func renderValuesBody(nodes []int, values []float64) []byte {
	buf := []byte(`{"field":"avg","values":[`)
	for i, node := range nodes {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"node":`...)
		buf = strconv.AppendInt(buf, int64(node), 10)
		buf = append(buf, `,"value":`...)
		buf = strconv.AppendFloat(buf, values[i], 'g', -1, 64)
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}

// pacer walks a timetable in real time.
type pacer struct {
	start time.Time
	late  timing // how late each request was sent, seconds
}

// wait sleeps until the operation is due and returns its due instant;
// how late the generator actually woke is recorded, and the caller
// times the request from the due instant regardless.
func (p *pacer) wait(o *op) time.Time {
	due := p.start.Add(o.due)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	if late := time.Since(due); late > 0 {
		p.late.add(late.Seconds())
	} else {
		p.late.add(0)
	}
	return due
}
