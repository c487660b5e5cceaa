package transport

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/xrand"
)

func TestBatchCodecRoundTrip(t *testing.T) {
	in := []Message{
		{Kind: KindPush, Epoch: 1, Seq: 10, From: "a#0", To: "b#3", Fields: []float64{1, 2}},
		{Kind: KindReply, Epoch: 1, Seq: 10, From: "b#3", To: "a#0", Fields: []float64{3}},
		{Kind: KindNack, Epoch: 2, Seq: 11, From: "b#4", To: "a#0", Gossip: []string{"c#1"}},
	}
	buf, err := MarshalBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != batchMarker {
		t.Fatalf("batch frame starts with %#x, want the batch marker", buf[0])
	}
	out, err := UnmarshalBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip count %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Kind != in[i].Kind || out[i].Seq != in[i].Seq ||
			out[i].From != in[i].From || out[i].To != in[i].To {
			t.Fatalf("message %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
	}
}

func TestBatchCodecRejectsMalformed(t *testing.T) {
	good, err := MarshalBatch([]Message{{Kind: KindPush, Seq: 1}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"not batch":  {0x01, 0x02},
		"zero count": {batchMarker, 0, 0},
		"truncated":  good[:len(good)-3],
		"trailing":   append(append([]byte{}, good...), 0xAB),
	}
	for name, buf := range cases {
		if _, err := UnmarshalBatch(buf); !errors.Is(err, ErrMalformedMessage) {
			t.Errorf("%s: err = %v, want ErrMalformedMessage", name, err)
		}
	}
	if _, err := MarshalBatch(nil); !errors.Is(err, ErrMalformedMessage) {
		t.Errorf("empty MarshalBatch err = %v, want ErrMalformedMessage", err)
	}
	// A batch frame must not decode as a single message.
	var m Message
	if err := m.UnmarshalBinary(good); !errors.Is(err, ErrMalformedMessage) {
		t.Errorf("batch frame decoded as single message: %v", err)
	}
}

// recordingEndpoint captures every delivered message in arrival order,
// for the exactly-once/ordering properties.
type recordingEndpoint struct {
	mu       sync.Mutex
	byDest   map[string][]Message
	batches  int
	maxBatch int
}

func newRecordingEndpoint() *recordingEndpoint {
	return &recordingEndpoint{byDest: make(map[string][]Message)}
}

func (r *recordingEndpoint) Addr() string          { return "rec" }
func (r *recordingEndpoint) Inbox() <-chan Message { return nil }
func (r *recordingEndpoint) Close() error          { return nil }
func (r *recordingEndpoint) SendBatch(to string, ms []Message) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byDest[to] = append(r.byDest[to], ms...)
	r.batches++
	if len(ms) > r.maxBatch {
		r.maxBatch = len(ms)
	}
	return nil
}

// TestBatcherExactlyOnceInOrderQuick is the batching layer's core
// property: under a randomized interleaving of enqueues, explicit
// flushes and size-cap flushes, every message is delivered exactly once
// and per-destination order is preserved.
func TestBatcherExactlyOnceInOrderQuick(t *testing.T) {
	check := func(seed uint64, flushPct uint8) bool {
		rng := xrand.New(seed)
		rec := newRecordingEndpoint()
		b := NewBatcher(rec)
		flushP := float64(flushPct%20) / 100 // 0: only the cap and the hammer flush

		dests := []string{"d0", "d1", "d2#7", "d2#9"}
		total := 3*maxBatch + 1
		var wg sync.WaitGroup
		// Concurrent flusher hammering the batcher mid-enqueue.
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					b.Flush()
				}
			}
		}()
		for i := 0; i < total; i++ {
			to := dests[rng.Intn(len(dests))]
			if err := b.Send(to, Message{Kind: KindPush, Seq: uint64(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return false
			}
			if rng.Bool(flushP) {
				b.Flush()
			}
		}
		close(stop)
		wg.Wait()
		b.Flush()
		if got := b.Pending(); got != 0 {
			t.Errorf("pending %d after final flush", got)
			return false
		}

		// Exactly once: each Seq appears once across all destinations.
		// In order: Seqs are increasing per destination queue (sub
		// addresses share a base queue but keep their own To).
		rec.mu.Lock()
		defer rec.mu.Unlock()
		seen := make(map[uint64]int)
		delivered := 0
		for base, ms := range rec.byDest {
			lastPerTo := make(map[string]uint64)
			for _, m := range ms {
				seen[m.Seq]++
				delivered++
				if last, ok := lastPerTo[m.To]; ok && m.Seq <= last {
					t.Errorf("dest %s: out of order: %d after %d", base, m.Seq, last)
					return false
				}
				lastPerTo[m.To] = m.Seq
			}
		}
		if delivered != total {
			t.Errorf("delivered %d, want %d", delivered, total)
			return false
		}
		for seq, n := range seen {
			if n != 1 {
				t.Errorf("seq %d delivered %d times", seq, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBatcherCoalescesIntoBatchFrames(t *testing.T) {
	rec := newRecordingEndpoint()
	b := NewBatcher(rec)
	for i := 0; i < 10; i++ {
		// Two sub-addresses of one endpoint share a batch.
		if err := b.Send(fmt.Sprintf("ep#%d", i%2), Message{Kind: KindPush, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Pending(); got != 10 {
		t.Fatalf("pending %d before flush, want 10", got)
	}
	b.Flush()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.batches != 1 || rec.maxBatch != 10 {
		t.Fatalf("batches=%d maxBatch=%d, want one batch of 10", rec.batches, rec.maxBatch)
	}
	if len(rec.byDest["ep"]) != 10 {
		t.Fatalf("base queue got %d messages", len(rec.byDest["ep"]))
	}
	for i, m := range rec.byDest["ep"] {
		if want := fmt.Sprintf("ep#%d", i%2); m.To != want {
			t.Fatalf("message %d To = %q, want %q", i, m.To, want)
		}
	}
}

func TestBatcherMaxBatchFlushesInline(t *testing.T) {
	rec := newRecordingEndpoint()
	b := NewBatcher(rec)
	for i := 0; i < maxBatch; i++ {
		if got := b.Pending(); got != i {
			t.Fatalf("pending %d before message %d, want %d", got, i, i)
		}
		if err := b.Send("x", Message{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Pending(); got != 0 {
		t.Fatalf("pending %d after hitting the cap, want 0", got)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.byDest["x"]) != maxBatch || rec.batches != 1 {
		t.Fatalf("delivered %d in %d batches, want %d in one", len(rec.byDest["x"]), rec.batches, maxBatch)
	}
}

func TestBatcherSendErrorHandler(t *testing.T) {
	fabric := NewFabric()
	ep := fabric.NewEndpoint()
	var mu sync.Mutex
	var failedTo string
	var failedCount int
	b := NewBatcher(ep, WithSendErrorHandler(func(to string, ms []Message, err error) {
		mu.Lock()
		failedTo, failedCount = to, len(ms)
		mu.Unlock()
	}))
	if err := b.Send("mem-999#3", Message{Kind: KindPush, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("mem-999#4", Message{Kind: KindPush, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	mu.Lock()
	defer mu.Unlock()
	if failedTo != "mem-999" || failedCount != 2 {
		t.Fatalf("error handler got to=%q count=%d, want mem-999/2", failedTo, failedCount)
	}
}

func TestBatcherCloseRejectsSends(t *testing.T) {
	fabric := NewFabric()
	b := NewBatcher(fabric.NewEndpoint())
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := b.Send("x", Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
}

// discardBatchEndpoint accepts batches without recording them, so alloc
// measurements see only the Batcher's own work.
type discardBatchEndpoint struct{ batches, messages int }

func (d *discardBatchEndpoint) Addr() string          { return "discard" }
func (d *discardBatchEndpoint) Inbox() <-chan Message { return nil }
func (d *discardBatchEndpoint) Close() error          { return nil }
func (d *discardBatchEndpoint) SendBatch(to string, ms []Message) error {
	d.batches++
	d.messages += len(ms)
	return nil
}

// TestBatcherSteadyStateAllocs pins the batching layer's allocation
// budget: once the destination index, queue slices and flush scratch
// have grown to steady state, a full enqueue-and-flush cycle allocates
// nothing — the map is cleared in place and every slice is recycled.
func TestBatcherSteadyStateAllocs(t *testing.T) {
	d := &discardBatchEndpoint{}
	b := NewBatcher(d)
	dests := []string{"a#0", "a#1", "b#7", "c#2"}
	cycle := func() {
		for i, to := range dests {
			if err := b.Send(to, Message{Kind: KindPush, Seq: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		b.Flush()
	}
	cycle() // warm up: build the index, queues and scratch
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("steady-state enqueue+flush cycle allocates %.1f objects, want 0", allocs)
	}
	if d.messages == 0 {
		t.Fatal("discard endpoint saw no messages")
	}
}

// TestAppendCodecSteadyStateAllocs pins the append-style codecs: with a
// reused encode buffer and decode scratch, marshalling a batch and
// unmarshalling it back allocates nothing once buffers have grown
// (address-less messages: decoded strings are the one part of the wire
// format that always allocates).
func TestAppendCodecSteadyStateAllocs(t *testing.T) {
	ms := []Message{
		{Kind: KindPush, Epoch: 3, Seq: 10, Fields: []float64{1, 2, 3}},
		{Kind: KindReply, Epoch: 3, Seq: 10, Fields: []float64{4, 5, 6}},
	}
	var buf []byte
	var scratch []Message
	cycle := func() {
		var err error
		buf, err = AppendBatch(buf[:0], ms)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err = UnmarshalBatchInto(buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if len(scratch) != 2 || scratch[1].Fields[2] != 6 {
			t.Fatalf("round trip corrupted: %+v", scratch)
		}
	}
	cycle() // warm up: grow buf and scratch to steady state
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("steady-state append-encode/decode cycle allocates %.1f objects, want 0", allocs)
	}
}

// TestAppendBatchMatchesMarshalBatch: the append-style encoder and the
// allocating wrapper produce identical frames, including when appending
// after existing bytes.
func TestAppendBatchMatchesMarshalBatch(t *testing.T) {
	ms := []Message{
		{Kind: KindPush, Epoch: 1, Seq: 2, From: "a#1", To: "b#2", Fields: []float64{1.5}, Gossip: []string{"c#3"}},
		{Kind: KindNack, Epoch: 1, Seq: 2, From: "b#2", To: "a#1"},
	}
	classic, err := MarshalBatch(ms)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte{0xAA, 0xBB}
	appended, err := AppendBatch(append([]byte{}, prefix...), ms)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(appended[:2], prefix) || !reflect.DeepEqual(appended[2:], classic) {
		t.Fatalf("append encoding diverges:\nclassic: %x\nappend:  %x", classic, appended)
	}
}

// TestUnmarshalBatchIntoReusesScratch: decoded messages land in the
// caller's scratch storage (same backing array, Fields capacity kept),
// and errors return an empty slice over that storage.
func TestUnmarshalBatchIntoReusesScratch(t *testing.T) {
	frame, err := MarshalBatch([]Message{{Kind: KindPush, Seq: 1, Fields: []float64{7, 8}}})
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]Message, 4, 8)
	scratch[0].Fields = make([]float64, 0, 16)
	out, err := UnmarshalBatchInto(frame, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || cap(out) != cap(scratch) {
		t.Fatalf("scratch not reused: len=%d cap=%d, want 1/%d", len(out), cap(out), cap(scratch))
	}
	if cap(out[0].Fields) != 16 || out[0].Fields[1] != 8 {
		t.Fatalf("fields scratch not reused: %+v (cap %d)", out[0].Fields, cap(out[0].Fields))
	}
	if bad, err := UnmarshalBatchInto([]byte{batchMarker, 0, 0}, scratch); err == nil || len(bad) != 0 {
		t.Fatalf("malformed frame: out=%v err=%v", bad, err)
	}
}

func TestBatcherOverFabricDelivers(t *testing.T) {
	fabric := NewFabric()
	src := fabric.NewEndpoint()
	dst := fabric.NewEndpoint()
	b := NewBatcher(src)
	for i := 0; i < 5; i++ {
		if err := b.Send(dst.Addr()+"#2", Message{Kind: KindPush, Seq: uint64(i), From: src.Addr() + "#0"}); err != nil {
			t.Fatal(err)
		}
	}
	b.Flush()
	for i := 0; i < 5; i++ {
		select {
		case m := <-dst.Inbox():
			if m.Seq != uint64(i) || m.To != dst.Addr()+"#2" || m.From != src.Addr()+"#0" {
				t.Fatalf("message %d = %+v", i, m)
			}
		case <-time.After(time.Second):
			t.Fatalf("message %d not delivered", i)
		}
	}
}

func TestBatcherOverTCPDelivers(t *testing.T) {
	a, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	bEp, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bEp.Close()
	batcher := NewBatcher(a)
	const n = 8
	for i := 0; i < n; i++ {
		if err := batcher.Send(SubAddr(bEp.Addr(), i), Message{Kind: KindPush, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	batcher.Flush()
	for i := 0; i < n; i++ {
		select {
		case m := <-bEp.Inbox():
			if m.Seq != uint64(i) || m.To != SubAddr(bEp.Addr(), i) {
				t.Fatalf("message %d = %+v", i, m)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("batched TCP message %d not delivered", i)
		}
	}
}
