package engine

import (
	"fmt"
	"sort"
)

// TraceOutcome classifies how a traced exchange ended.
type TraceOutcome uint8

const (
	// TraceCompleted: the pull reply arrived and was merged.
	TraceCompleted TraceOutcome = iota
	// TraceNacked: the peer was busy and declined the push.
	TraceNacked
	// TraceTimedOut: the reply deadline passed; only the passive side
	// (if any) committed the exchange.
	TraceTimedOut
)

// String returns the outcome name.
func (o TraceOutcome) String() string {
	switch o {
	case TraceCompleted:
		return "completed"
	case TraceNacked:
		return "nacked"
	case TraceTimedOut:
		return "timeout"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// TraceRecord is one sampled exchange, observed from its initiator.
// Times are scheduler time: seconds since the runtime started.
type TraceRecord struct {
	// Seq is the initiating shard's exchange sequence number.
	Seq uint64
	// Src is the initiating node's global index; Shard its shard.
	Src   int32
	Shard int32
	// Dst is the sampled peer's global index, or -1 when the peer is
	// not hosted by this runtime (e.g. a remote process's node).
	Dst int32
	// Outcome says how the exchange ended.
	Outcome TraceOutcome
	// Start is when the push was sent, End when the reply, nack or
	// timeout resolved it.
	Start, End float64
}

// Latency returns End − Start in seconds.
func (r TraceRecord) Latency() float64 { return r.End - r.Start }

// String renders one record for log output.
func (r TraceRecord) String() string {
	dst := "remote"
	if r.Dst >= 0 {
		dst = fmt.Sprintf("%d", r.Dst)
	}
	return fmt.Sprintf("seq=%d src=%d@%d dst=%s %s %.3fms",
		r.Seq, r.Src, r.Shard, dst, r.Outcome, r.Latency()*1e3)
}

// traceRingSize is each shard's trace ring capacity when sampling is on.
const traceRingSize = 256

// traceRing is a shard's fixed-size ring of sampled exchange records,
// guarded by the shard's round lock. With sampling off the ring is nil
// and the hot path pays a single predictable branch.
type traceRing struct {
	recs []TraceRecord
	n    uint64 // total records ever written
}

// record appends one record, overwriting the oldest when full.
func (r *traceRing) record(rec TraceRecord) {
	if len(r.recs) == 0 {
		return
	}
	r.recs[r.n%uint64(len(r.recs))] = rec
	r.n++
}

// snapshotInto appends the ring's live records to out, oldest first.
func (r *traceRing) snapshotInto(out []TraceRecord) []TraceRecord {
	size := uint64(len(r.recs))
	if size == 0 {
		return out
	}
	live := r.n
	if live > size {
		live = size
	}
	for i := r.n - live; i < r.n; i++ {
		out = append(out, r.recs[i%size])
	}
	return out
}

// recordTrace stores one resolved exchange in the shard's ring and
// feeds the latency histogram. Caller holds s.mu and has already
// checked the sampling gate.
func (s *rshard) recordTrace(li int, seq uint64, outcome TraceOutcome, end float64) {
	c := &s.cold[li]
	s.trace.record(TraceRecord{
		Seq:     seq,
		Src:     int32(s.lo + li),
		Shard:   int32(s.id),
		Dst:     c.pendingDst,
		Outcome: outcome,
		Start:   c.pendingAt,
		End:     end,
	})
	if s.latency != nil {
		s.latency.Observe(end - c.pendingAt)
	}
}

// traceSampled reports whether exchange seq falls on the sampling
// lattice. traceEvery is a power of two, so the gate is a load, a
// branch and a mask — no division on the exchange hot path; with
// sampling off it is one predictable branch.
func (s *rshard) traceSampled(seq uint64) bool {
	return s.traceEvery != 0 && seq&(s.traceEvery-1) == 0
}

// Trace returns up to max sampled exchange records across all shards,
// most recent last (ordered by resolution time). It locks each shard
// briefly — round-granular, like any observer — and returns nil when
// sampling is off. max ≤ 0 returns everything currently buffered.
func (rt *Runtime) Trace(max int) []TraceRecord {
	if rt.cfg.TraceSample <= 0 {
		return nil
	}
	out := make([]TraceRecord, 0, len(rt.shards)*traceRingSize)
	for _, s := range rt.shards {
		s.mu.Lock()
		out = s.trace.snapshotInto(out)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].End < out[j].End })
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}
