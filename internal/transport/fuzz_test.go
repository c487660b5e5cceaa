package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"testing"
)

// codecVectors are the round-trip vectors of the codec tests, plus a
// NaN-carrying state, as fuzz seeds.
func codecVectors() []Message {
	return []Message{
		sampleMessage(),
		{Kind: KindReply, Epoch: 0, Seq: 1, From: "x"},
		{Kind: KindPush, From: "a", Gossip: []string{"p", "q", "r"}, GossipAges: []uint32{1000, 2}},
		{Kind: KindPush, Epoch: 1, Seq: 10, From: "a#0", To: "b#3", Fields: []float64{1, 2}},
		{Kind: KindReply, Epoch: 1, Seq: 10, From: "b#3", To: "a#0", Fields: []float64{3}},
		{Kind: KindNack, Epoch: 2, Seq: 11, From: "b#4", To: "a#0", Gossip: []string{"c#1"}},
		{Kind: KindReply, Seq: 3, Fields: []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1)}},
	}
}

// sameMessage reports whether two decoded messages are equal, comparing
// Fields by their bits so NaN payloads and signed zeros count.
func sameMessage(a, b *Message) bool {
	if a.Kind != b.Kind || a.Epoch != b.Epoch || a.Seq != b.Seq || a.From != b.From || a.To != b.To ||
		len(a.Fields) != len(b.Fields) || len(a.Gossip) != len(b.Gossip) || len(a.GossipAges) != len(b.GossipAges) {
		return false
	}
	for i := range a.Fields {
		if math.Float64bits(a.Fields[i]) != math.Float64bits(b.Fields[i]) {
			return false
		}
	}
	for i := range a.Gossip {
		if a.Gossip[i] != b.Gossip[i] {
			return false
		}
	}
	for i := range a.GossipAges {
		if a.GossipAges[i] != b.GossipAges[i] {
			return false
		}
	}
	return true
}

// FuzzUnmarshalBinary feeds arbitrary frames to the message decoder. It
// must never panic, and every frame it accepts must be canonical:
// re-encoding the decoded message gives back the same bytes, and
// decoding those — into a recycled Message, as the transports do —
// gives back the same message.
func FuzzUnmarshalBinary(f *testing.F) {
	for _, m := range codecVectors() {
		b, err := m.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{batchMarker, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if m.UnmarshalBinary(data) != nil {
			return
		}
		enc, err := m.AppendBinary(nil)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v (%+v)", err, m)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encoding changed the frame:\n in: %x\nout: %x", data, enc)
		}
		again := Message{Fields: make([]float64, 0, 8), Gossip: make([]string, 0, 4), GossipAges: make([]uint32, 0, 4)}
		if err := again.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !sameMessage(&m, &again) {
			t.Fatalf("decode∘encode changed the message:\n first: %+v\nsecond: %+v", m, again)
		}
	})
}

// FuzzUnmarshalBatchInto feeds arbitrary frames to the batch decoder,
// with the same contract as FuzzUnmarshalBinary: no panic, and every
// accepted frame re-encodes to itself and decodes — into the scratch of
// an earlier decode, as the TCP reader reuses it — to the same
// messages.
func FuzzUnmarshalBatchInto(f *testing.F) {
	vectors := codecVectors()
	for i := range vectors {
		b, err := AppendBatch(nil, vectors[i:])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{batchMarker, 0, 0})
	f.Add([]byte{batchMarker, 0, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := UnmarshalBatchInto(data, nil)
		if err != nil {
			return
		}
		enc, err := AppendBatch(nil, first)
		if err != nil {
			t.Fatalf("decoded batch of %d does not re-encode: %v", len(first), err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encoding changed the frame:\n in: %x\nout: %x", data, enc)
		}
		second, err := UnmarshalBatchInto(enc, nil)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		third, err := UnmarshalBatchInto(enc, second)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode into reused scratch: %v", err)
		}
		if len(third) != len(first) {
			t.Fatalf("decode∘encode changed the batch size: %d, then %d", len(first), len(third))
		}
		for i := range first {
			if !sameMessage(&first[i], &third[i]) {
				t.Fatalf("decode∘encode changed message %d:\n first: %+v\nsecond: %+v", i, first[i], third[i])
			}
		}
	})
}

// framed prepends a TCP frame's length header to payload.
func framed(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// minFramedMessage is the fewest stream bytes one delivered message can
// take: its sub-frame length and a message with empty addresses, no
// fields and no gossip.
const minFramedMessage = 4 + 1 + 8 + 8 + 2 + 2 + 2 + 2

// readerOverhead bounds what a reader allocates whatever its input:
// the 16 KiB read buffer and a little bookkeeping.
const readerOverhead = 24 << 10

// readStream runs a TCP endpoint's frame reader over one net.Pipe
// connection carrying data, and returns what it delivered, how many
// messages it dropped and how many heap bytes it allocated meanwhile.
func readStream(data []byte) (got []Message, dropped, allocated uint64) {
	e := &TCPEndpoint{
		inbox:   make(chan Message, len(data)/minFramedMessage+1),
		inbound: make(map[net.Conn]struct{}),
	}
	client, server := net.Pipe()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		_, _ = client.Write(data) // fails once the reader rejects a frame and closes its end
		_ = client.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.wg.Add(1)
	e.readLoop(server) // returns once the stream ends or a frame is rejected
	runtime.ReadMemStats(&after)
	<-wrote
	close(e.inbox)
	for m := range e.inbox {
		got = append(got, m)
	}
	return got, e.InboxDropped(), after.TotalAlloc - before.TotalAlloc
}

// FuzzTCPReader feeds arbitrary bytes, as one inbound connection's
// stream, to the TCP endpoint's frame reader over a net.Pipe. The
// reader must never panic. It must deliver exactly the messages of the
// well-formed batch frames that lead the stream, and stop at the first
// frame that is not one; each delivered frame's messages must re-encode
// to that frame's bytes, so reusing the decode scratch never corrupts a
// delivered message. And it must allocate no more than one
// maximum-size frame buffer plus a constant multiple of its input: no
// allocation is sized by a length prefix the reader did not check.
func FuzzTCPReader(f *testing.F) {
	vectors := codecVectors()
	batch, err := AppendBatch(nil, vectors)
	if err != nil {
		f.Fatal(err)
	}
	single, err := vectors[0].MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(framed(batch))
	f.Add(append(framed(batch), framed(batch)...))
	f.Add(append(framed(batch), framed(batch[:len(batch)-1])...))
	f.Add(append(framed(batch), framed(single)...))
	f.Add(framed(single))
	f.Add([]byte{0, 0, 0, 0})
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrameSize))
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrameSize+1))
	f.Add(framed([]byte{batchMarker, 0xFF, 0xFF, 0, 0, 0, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, dropped, allocated := readStream(data)
		if dropped != 0 {
			t.Fatalf("reader dropped %d messages on an inbox sized for the whole stream", dropped)
		}
		want, rest := 0, data
		for len(rest) >= 4 {
			size := int(binary.BigEndian.Uint32(rest))
			if size == 0 || size > maxFrameSize || size > len(rest)-4 {
				break
			}
			frame := rest[4 : 4+size]
			ms, err := UnmarshalBatch(frame)
			if err != nil {
				break
			}
			if len(got) < want+len(ms) {
				t.Fatalf("reader delivered %d messages, but the well-formed frames up to here carry %d", len(got), want+len(ms))
			}
			enc, err := AppendBatch(nil, got[want:want+len(ms)])
			if err != nil {
				t.Fatalf("delivered messages %d..%d do not re-encode: %v", want, want+len(ms), err)
			}
			if !bytes.Equal(enc, frame) {
				t.Fatalf("delivered messages %d..%d re-encode differently:\n in: %x\nout: %x", want, want+len(ms), frame, enc)
			}
			want += len(ms)
			rest = rest[4+size:]
		}
		if len(got) != want {
			t.Fatalf("reader delivered %d messages; the well-formed frames leading the stream carry %d", len(got), want)
		}
		// The one buffer a length prefix sizes before its bytes arrive
		// is the frame buffer of the rejected frame, if its header
		// passed the size check.
		unbacked := 0
		if len(rest) >= 4 {
			if size := int(binary.BigEndian.Uint32(rest)); size <= maxFrameSize {
				unbacked = size
			}
		}
		if limit := uint64(readerOverhead + 32*len(data) + unbacked); allocated > limit {
			t.Fatalf("reader allocated %d bytes for a %d-byte stream (limit %d)", allocated, len(data), limit)
		}
	})
}
