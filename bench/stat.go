package main

import (
	"math"
	"sort"
)

// timing is a set of latency samples reported the way the README's
// "reading a timing" section says: a median, the highest tail percentile
// the sample count supports, and the count itself.
type timing struct {
	samples []float64
}

func (t *timing) add(x float64) { t.samples = append(t.samples, x) }

func (t *timing) n() int { return len(t.samples) }

// sorted returns the samples in ascending order without disturbing the
// recording order.
func (t *timing) sorted() []float64 {
	s := append([]float64(nil), t.samples...)
	sort.Float64s(s)
	return s
}

// p returns the q-quantile (0 ≤ q ≤ 1), NaN when empty.
func (t *timing) p(q float64) float64 { return percentile(t.sorted(), q) }

// tail returns the highest percentile not above limit that still has at
// least ten samples beyond it, and its value. With 813 samples and
// limit 0.99 that is p98.77, not p99: a "p99" read off eight samples
// would not repeat.
func (t *timing) tail(limit float64) (q, value float64) {
	q = tailQuantile(len(t.samples), limit)
	return q, t.p(q)
}

// tailQuantile is the quantile behind timing.tail: min(limit, 1−10/n),
// never below the median.
func tailQuantile(n int, limit float64) float64 {
	if n <= 20 {
		return 0.5
	}
	return math.Min(limit, 1-10/float64(n))
}

// percentile linearly interpolates the q-quantile of an ascending slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method) — the estimator the acceptance driver
// uses for run-to-run spread, so -calibrate and -compare judge a metric
// exactly as the driver will. Needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}

// convSample is one point of a variance trajectory: the protocol cycles
// executed so far (exchanges initiated per node — the paper's cycle
// unit, what telemetry.go normalises by) and the cross-node variance.
type convSample struct {
	cycles   float64
	variance float64
}

// logVarAt log-linearly interpolates the trajectory at c cycles. ok is
// false when c lies outside the sampled range or a bracketing variance
// is not positive.
func logVarAt(tr []convSample, c float64) (lv float64, ok bool) {
	for i := 1; i < len(tr); i++ {
		a, b := tr[i-1], tr[i]
		if c < a.cycles || c > b.cycles || b.cycles == a.cycles {
			continue
		}
		if a.variance <= 0 || b.variance <= 0 {
			return 0, false
		}
		la, lb := math.Log(a.variance), math.Log(b.variance)
		return la + (lb-la)*(c-a.cycles)/(b.cycles-a.cycles), true
	}
	return 0, false
}

// rhoHat is the geometric-mean per-executed-cycle variance reduction
// over the span executed cycles after the trajectory's first sample
// (the issue's "cycles 1…25"): (σ²(c₀+span)/σ²(c₀))^(1/span). When the
// trajectory ends early the last sample closes the span instead. NaN
// without two usable points.
func rhoHat(tr []convSample, span float64) float64 {
	if len(tr) < 2 || tr[0].variance <= 0 {
		return math.NaN()
	}
	c0, l0 := tr[0].cycles, math.Log(tr[0].variance)
	if lv, ok := logVarAt(tr, c0+span); ok {
		return math.Exp((lv - l0) / span)
	}
	last := tr[len(tr)-1]
	if last.variance <= 0 || last.cycles <= c0 || last.cycles > c0+span {
		return math.NaN()
	}
	return math.Exp((math.Log(last.variance) - l0) / (last.cycles - c0))
}

// cyclesToEps is the number of executed cycles after the first sample
// until the variance has fallen to ratio·σ₀², log-linearly interpolated
// between the bracketing samples. NaN when the trajectory never gets
// there.
func cyclesToEps(tr []convSample, ratio float64) float64 {
	if len(tr) < 2 || tr[0].variance <= 0 {
		return math.NaN()
	}
	target := math.Log(tr[0].variance * ratio)
	for i := 1; i < len(tr); i++ {
		a, b := tr[i-1], tr[i]
		if b.variance > 0 && math.Log(b.variance) > target {
			continue
		}
		if a.variance <= 0 {
			return math.NaN()
		}
		la := math.Log(a.variance)
		lb := math.Inf(-1)
		if b.variance > 0 {
			lb = math.Log(b.variance)
		}
		frac := 1.0
		if !math.IsInf(lb, -1) && lb != la {
			frac = (target - la) / (lb - la)
		}
		return a.cycles + frac*(b.cycles-a.cycles) - tr[0].cycles
	}
	return math.NaN()
}
