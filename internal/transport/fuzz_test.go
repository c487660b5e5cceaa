package transport

import (
	"bytes"
	"math"
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
