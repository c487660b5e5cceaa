package engine

import "sync"

// fieldsPool recycles the []float64 Fields buffers that every push and
// reply carries, so the steady-state exchange path allocates nothing.
//
// Ownership protocol (see DESIGN.md, "Allocation budget & buffer
// ownership"):
//
//   - A sender draws a buffer from its pool, fills it and hands it to
//     transport.Endpoint.Send (usually via a Batcher). From that moment
//     the buffer belongs to the transport and, after delivery, to the
//     receiver; the sender must not touch it again.
//   - A receiver owns every Message.Fields it reads from an Inbox. It
//     may mutate the buffer (Schema.MergeExchange turns an inbound push
//     buffer into the outbound reply buffer in place) and must either
//     forward it in another message or return it with put.
//   - A buffer handed to a lossy link (fabric drop, inbox overflow,
//     dead TCP peer) is simply abandoned to the garbage collector; the
//     pool tolerates leaks by construction.
//
// Buffers are fixed-length (the schema's field count). put drops
// buffers of any other length, so frames from a foreign schema can
// never poison the pool.
//
// The shared tier is a sync.Pool so idle buffers are reclaimed across
// GC cycles; each shard additionally keeps a small lock-free local
// free list in front of it — see rshard.free — because sync.Pool.Put
// boxes the slice header on every call, which would itself be a
// per-exchange allocation.
type fieldsPool struct {
	n      int
	shared sync.Pool
}

// newFieldsPool returns a pool of length-n buffers.
func newFieldsPool(n int) *fieldsPool {
	return &fieldsPool{n: n}
}

// get returns a length-n buffer with undefined contents.
func (p *fieldsPool) get() []float64 {
	if v := p.shared.Get(); v != nil {
		buf := *(v.(*[]float64))
		poolCheckGet(buf)
		return buf
	}
	return make([]float64, p.n)
}

// put recycles a buffer. Buffers of the wrong length (foreign schema,
// malformed frame) and nil are dropped.
func (p *fieldsPool) put(buf []float64) {
	if len(buf) != p.n {
		return
	}
	poolPoisonPut(buf)
	p.shared.Put(&buf)
}

// localFree is the shard-local tier: a plain stack of free buffers used
// without any synchronization beyond the owner's own lock. It absorbs
// the common case (a shard's own get/put traffic) with zero allocations
// and spills to / refills from the shared pool only when cross-shard
// message flow imbalances it. Spilling is not free — sync.Pool.Put
// boxes the slice header — so cap must exceed the shard's in-flight
// buffer working set (pending exchanges up to the event budget, queued
// batches, inbox backlog) or every exchange pays the box.
type localFree struct {
	pool *fieldsPool
	cap  int
	free [][]float64

	// Traffic counters, plain uint64s bumped under the owner's lock and
	// published to atomic mirrors once per scheduler round (rshard.pub)
	// — the metrics layer never adds an atomic to the per-buffer path.
	gets   uint64 // successful draws from the local tier
	puts   uint64 // recycles into the local tier
	misses uint64 // draws that fell through to the shared pool
}

// newLocalFree sizes a shard-local tier for a shard of n nodes: every
// node can have at most one exchange in flight, so n outstanding
// buffers (plus slack for batch queues and the inbox) bounds what the
// shard can usefully hold; the hard ceiling keeps a 10⁶-node shard's
// list at ~400 kB of headers.
func newLocalFree(pool *fieldsPool, n int) localFree {
	return localFree{pool: pool, cap: min(max(2*n, 1024), 16384)}
}

// get returns a buffer from the local tier, falling back to the shared
// pool.
func (l *localFree) get() []float64 {
	if n := len(l.free); n > 0 {
		l.gets++
		buf := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		poolCheckGet(buf)
		return buf
	}
	l.misses++
	return l.pool.get()
}

// put recycles a buffer into the local tier, spilling to the shared
// pool when full.
func (l *localFree) put(buf []float64) {
	if len(buf) != l.pool.n {
		return
	}
	if len(l.free) < l.cap {
		l.puts++
		poolPoisonPut(buf)
		l.free = append(l.free, buf)
		return
	}
	l.pool.put(buf)
}
