package transport

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// batchMarker is the first byte of a multi-message container frame. It is
// deliberately outside the Kind range so a batch frame can never be
// mistaken for a single message (UnmarshalBinary rejects it as an unknown
// kind), nor a single message for a batch (UnmarshalBatchInto rejects any
// other first byte).
const batchMarker byte = 0x7F

// maxBatchCount bounds what a malformed batch frame can make us allocate.
const maxBatchCount = 1 << 14

// BatchSender is an endpoint's one send method: it delivers several
// messages to one destination in a single operation — one framed packet
// over TCP, one routing-table lookup on the in-memory fabric. A single
// message travels as a batch of one. Delivery order within the batch
// must be preserved. The callee must not retain ms (the slice) after
// returning; it may retain the messages' Fields/Gossip, whose ownership
// travels with the message.
type BatchSender interface {
	SendBatch(to string, ms []Message) error
}

// AppendBatch appends a container frame holding every message to buf
// and returns the extended slice:
//
//	0x7F | u16 count | (u32 len | frame)*
//
// where each sub-frame is an AppendBinary message frame. Sub-frame
// lengths are backfilled in place, so no per-message staging buffers
// are allocated; with a reused buf the encode is allocation-free at
// steady state.
func AppendBatch(buf []byte, ms []Message) ([]byte, error) {
	if len(ms) == 0 || len(ms) > maxBatchCount {
		return buf, fmt.Errorf("%w: batch of %d messages", ErrMalformedMessage, len(ms))
	}
	start := len(buf)
	buf = append(buf, batchMarker)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(ms)))
	for i := range ms {
		lenAt := len(buf)
		buf = append(buf, 0, 0, 0, 0) // length placeholder, backfilled below
		var err error
		if buf, err = ms[i].AppendBinary(buf); err != nil {
			return buf[:start], err
		}
		binary.BigEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	}
	return buf, nil
}

// MarshalBatch encodes messages into one freshly allocated container
// frame. Hot paths reuse a caller-owned buffer with AppendBatch
// instead.
func MarshalBatch(ms []Message) ([]byte, error) {
	return AppendBatch(nil, ms)
}

// UnmarshalBatchInto decodes a container frame produced by MarshalBatch
// or AppendBatch into the caller-owned scratch slice, preserving
// message order, and returns the decoded messages (scratch resliced and
// grown as needed). Reused scratch entries keep their Fields/Gossip
// backing arrays across calls, so a caller that retains ownership of
// the results decodes without allocating vectors. A caller that hands a
// decoded Message to another owner (e.g. an endpoint inbox) must zero
// that entry before the next call — the next decode would otherwise
// overwrite the new owner's buffers.
func UnmarshalBatchInto(b []byte, scratch []Message) ([]Message, error) {
	r := reader{buf: b}
	if r.u8() != batchMarker {
		return scratch[:0], fmt.Errorf("%w: not a batch frame", ErrMalformedMessage)
	}
	count := int(r.u16())
	if count == 0 || count > maxBatchCount || 4*count > r.left() {
		return scratch[:0], fmt.Errorf("%w: batch count %d", ErrMalformedMessage, count)
	}
	out := scratch[:0]
	for i := 0; i < count; i++ {
		size := int(r.u64from32())
		sub := r.bytes(size)
		if r.failed {
			return out[:0], fmt.Errorf("%w: truncated batch frame", ErrMalformedMessage)
		}
		if i < len(scratch) {
			out = out[:i+1]
		} else {
			out = append(out, Message{})
		}
		if err := out[i].UnmarshalBinary(sub); err != nil {
			return out[:0], err
		}
	}
	if r.pos != len(b) {
		return out[:0], fmt.Errorf("%w: %d trailing bytes in batch frame", ErrMalformedMessage, len(b)-r.pos)
	}
	return out, nil
}

// UnmarshalBatch decodes a container frame into freshly allocated
// messages, preserving message order.
func UnmarshalBatch(b []byte) ([]Message, error) {
	ms, err := UnmarshalBatchInto(b, nil)
	if err != nil {
		return nil, err
	}
	return ms, nil
}

// u64from32 reads a big-endian u32 as an int-sized value.
func (r *reader) u64from32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// BatcherOption configures a Batcher.
type BatcherOption func(*Batcher)

// maxBatch caps a destination's queue; reaching it flushes inline.
const maxBatch = 256

// WithSendErrorHandler installs a callback invoked for each destination
// whose flush failed (dead peer, closed endpoint), with the undelivered
// messages. Those messages are dropped — the protocol treats send
// failure as message loss, which it tolerates by design. The callback
// may run while a sender holds its own locks, so it must not call back
// into the Batcher; defer heavy work. It must not retain ms after
// returning: the Batcher recycles the slice for later batches.
func WithSendErrorHandler(fn func(to string, ms []Message, err error)) BatcherOption {
	return func(b *Batcher) { b.onErr = fn }
}

// destQueue is one destination's pending batch.
type destQueue struct {
	to string
	ms []Message
}

// Batcher coalesces same-destination messages in front of an Endpoint:
// Send enqueues, and a later Flush (explicit or size-triggered) delivers
// each destination's queue as one batch. It guarantees that under any
// interleaving of Send and Flush calls every accepted message is handed
// to the underlying endpoint exactly once and that per-destination order
// is preserved.
//
// All queue storage — the destination index, the per-destination
// message slices and the flush scratch — is recycled across flush
// cycles, so a Batcher in steady state allocates nothing per message or
// per flush.
type Batcher struct {
	ep    Endpoint
	onErr func(to string, ms []Message, err error)

	// mu guards the queues; flushMu serializes deliveries so concurrent
	// flushes cannot reorder one destination's batches.
	mu      sync.Mutex
	index   map[string]int // destination → position in batches
	batches []destQueue    // pending queues in first-enqueue order
	spare   [][]Message    // cleared message slices, ready for reuse
	pending int
	closed  bool

	flushMu  sync.Mutex
	flushing []destQueue // scratch swapped with batches during a flush

	// Traffic counters, maintained at frame granularity (one atomic add
	// per delivered batch, not per message) and read lock-free by the
	// metrics layer.
	frames   atomic.Uint64
	messages atomic.Uint64
	failures atomic.Uint64
}

// NewBatcher wraps an endpoint with a coalescing send queue.
func NewBatcher(ep Endpoint, opts ...BatcherOption) *Batcher {
	b := &Batcher{ep: ep, index: make(map[string]int)}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// Send enqueues the message for its destination. Messages are coalesced
// per base endpoint address, so sub-addressed nodes multiplexed behind
// one endpoint ("ep#0", "ep#1", …) share a batch; each message's own To
// keeps the full destination for receiver demultiplexing. A queue
// reaching the batch-size cap is flushed inline.
//
// Ownership of m.Fields and m.Gossip passes to the Batcher (and onward
// to the endpoint and receiver); the caller must not reuse them after
// Send.
func (b *Batcher) Send(to string, m Message) error {
	m.To = to
	base := BaseAddr(to)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	qi, known := b.index[base]
	if !known {
		qi = len(b.batches)
		var ms []Message
		if n := len(b.spare); n > 0 {
			ms = b.spare[n-1]
			b.spare[n-1] = nil
			b.spare = b.spare[:n-1]
		}
		b.batches = append(b.batches, destQueue{to: base, ms: ms})
		b.index[base] = qi
	}
	b.batches[qi].ms = append(b.batches[qi].ms, m)
	b.pending++
	full := len(b.batches[qi].ms) >= maxBatch
	b.mu.Unlock()
	if full {
		b.Flush()
	}
	return nil
}

// Flush delivers every queued message now, one batch per destination in
// first-enqueue destination order. Safe for concurrent use.
func (b *Batcher) Flush() {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	b.mu.Lock()
	if b.pending == 0 {
		b.mu.Unlock()
		return
	}
	// Swap the pending queues out against the (empty) flush scratch and
	// clear the index in place: the map's storage, both destQueue
	// slices and every message slice live on to the next cycle.
	b.batches, b.flushing = b.flushing[:0], b.batches
	clear(b.index)
	b.pending = 0
	b.mu.Unlock()

	for i := range b.flushing {
		b.deliver(b.flushing[i].to, b.flushing[i].ms)
	}

	// Retire the delivered queues: drop the Message values (they hold
	// Fields and address references now owned by the receiver) and bank
	// the slices for reuse.
	b.mu.Lock()
	for i := range b.flushing {
		ms := b.flushing[i].ms
		clear(ms)
		b.spare = append(b.spare, ms[:0])
		b.flushing[i] = destQueue{}
	}
	b.flushing = b.flushing[:0]
	b.mu.Unlock()
}

// deliver hands one base destination's queue to the endpoint.
func (b *Batcher) deliver(to string, ms []Message) {
	err := b.ep.SendBatch(to, ms)
	b.frames.Add(1)
	b.messages.Add(uint64(len(ms)))
	if err != nil {
		b.failures.Add(uint64(len(ms)))
		if b.onErr != nil {
			b.onErr(to, ms, err)
		}
	}
}

// FramesSent returns how many batch frames have been delivered.
func (b *Batcher) FramesSent() uint64 { return b.frames.Load() }

// MessagesSent returns how many messages those frames carried.
func (b *Batcher) MessagesSent() uint64 { return b.messages.Load() }

// SendFailures returns how many messages failed delivery (dead peer,
// closed endpoint); the protocol treats them as message loss.
func (b *Batcher) SendFailures() uint64 { return b.failures.Load() }

// Pending returns the number of queued, not yet flushed messages.
func (b *Batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pending
}

// Close flushes the queues, rejects further sends and closes the
// underlying endpoint. Idempotent.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	b.Flush()
	return b.ep.Close()
}
