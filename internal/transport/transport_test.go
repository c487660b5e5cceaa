package transport

import (
	"errors"
	"math"
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func sampleMessage() Message {
	return Message{
		Kind:       KindPush,
		Epoch:      42,
		Seq:        7,
		From:       "node-a",
		Fields:     []float64{1.5, -2.25, math.Pi},
		Gossip:     []string{"node-b", "node-c"},
		GossipAges: []uint32{0, 3},
	}
}

func TestCodecGossipAges(t *testing.T) {
	// Ages saturate at MaxGossipAge on the wire, and a short or missing
	// GossipAges slice encodes as zeroes.
	in := Message{
		Kind: KindPush, From: "a",
		Gossip:     []string{"p", "q", "r"},
		GossipAges: []uint32{1000, 2},
	}
	buf, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out Message
	if err := out.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	want := []uint32{MaxGossipAge, 2, 0}
	if !reflect.DeepEqual(out.GossipAges, want) {
		t.Fatalf("ages = %v, want %v", out.GossipAges, want)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	in := sampleMessage()
	buf, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out Message
	if err := out.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestCodecRoundTripEmptyOptionalParts(t *testing.T) {
	in := Message{Kind: KindReply, Epoch: 0, Seq: 1, From: "x"}
	buf, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out Message
	if err := out.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if out.Kind != KindReply || out.From != "x" || len(out.Fields) != 0 || len(out.Gossip) != 0 {
		t.Fatalf("out = %+v", out)
	}
}

func TestCodecRoundTripQuick(t *testing.T) {
	check := func(epoch, seq uint64, from string, fields []float64, gossip []string) bool {
		if len(from) > 64 {
			from = from[:64]
		}
		if len(fields) > 32 {
			fields = fields[:32]
		}
		if len(gossip) > 8 {
			gossip = gossip[:8]
		}
		for i, g := range gossip {
			if len(g) > 64 {
				gossip[i] = g[:64]
			}
		}
		for _, f := range fields {
			if math.IsNaN(f) {
				return true // NaN != NaN breaks DeepEqual, not the codec
			}
		}
		in := Message{Kind: KindPush, Epoch: epoch, Seq: seq, From: from, Fields: fields, Gossip: gossip}
		buf, err := in.MarshalBinary()
		if err != nil {
			return false
		}
		var out Message
		if err := out.UnmarshalBinary(buf); err != nil {
			return false
		}
		if out.Epoch != in.Epoch || out.Seq != in.Seq || out.From != in.From {
			return false
		}
		if len(out.Fields) != len(in.Fields) || len(out.Gossip) != len(in.Gossip) {
			return false
		}
		for i := range in.Fields {
			if out.Fields[i] != in.Fields[i] {
				return false
			}
		}
		for i := range in.Gossip {
			if out.Gossip[i] != in.Gossip[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	src := sampleMessage()
	good, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"truncated":    good[:len(good)/2],
		"trailing":     append(append([]byte{}, good...), 0xFF),
		"unknown kind": append([]byte{0xEE}, good[1:]...),
	}
	for name, buf := range cases {
		var m Message
		if err := m.UnmarshalBinary(buf); !errors.Is(err, ErrMalformedMessage) {
			t.Errorf("%s: err = %v, want ErrMalformedMessage", name, err)
		}
	}
}

func TestCodecRejectsOversize(t *testing.T) {
	m := sampleMessage()
	m.Fields = make([]float64, maxFields+1)
	if _, err := m.MarshalBinary(); !errors.Is(err, ErrMalformedMessage) {
		t.Errorf("oversize fields: err = %v", err)
	}
	m = sampleMessage()
	m.Gossip = make([]string, maxGossip+1)
	if _, err := m.MarshalBinary(); !errors.Is(err, ErrMalformedMessage) {
		t.Errorf("oversize gossip: err = %v", err)
	}
}

func TestFabricDelivery(t *testing.T) {
	f := NewFabric()
	a, b := f.NewEndpoint(), f.NewEndpoint()
	defer a.Close()
	defer b.Close()
	if err := a.SendBatch(b.Addr(), []Message{{Kind: KindPush, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Inbox():
		if m.Seq != 1 || m.From != a.Addr() {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestFabricUnknownDestination(t *testing.T) {
	f := NewFabric()
	a := f.NewEndpoint()
	defer a.Close()
	if err := a.SendBatch("mem-999", []Message{{Kind: KindPush}}); !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("err = %v, want ErrPeerUnreachable", err)
	}
}

func TestFabricDropProbability(t *testing.T) {
	f := NewFabric(WithDropProbability(1), WithSeed(1))
	a, b := f.NewEndpoint(), f.NewEndpoint()
	defer a.Close()
	defer b.Close()
	for i := 0; i < 50; i++ {
		if err := a.SendBatch(b.Addr(), []Message{{Kind: KindPush}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-b.Inbox():
		t.Fatal("message delivered despite p=1 drop")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestFabricFilterPartition(t *testing.T) {
	f := NewFabric()
	a, b := f.NewEndpoint(), f.NewEndpoint()
	defer a.Close()
	defer b.Close()
	f.SetFilter(func(from, to string) bool { return false })
	if err := a.SendBatch(b.Addr(), []Message{{Kind: KindPush}}); err != nil {
		t.Fatal(err) // filtered drops are silent, like the network
	}
	select {
	case <-b.Inbox():
		t.Fatal("message crossed the partition")
	case <-time.After(50 * time.Millisecond):
	}
	f.SetFilter(nil) // heal
	if err := a.SendBatch(b.Addr(), []Message{{Kind: KindPush, Seq: 9}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Inbox():
		if m.Seq != 9 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered after heal")
	}
}

func TestFabricLatency(t *testing.T) {
	f := NewFabric(WithLatency(30*time.Millisecond, 0))
	a, b := f.NewEndpoint(), f.NewEndpoint()
	defer a.Close()
	defer b.Close()
	start := time.Now()
	if err := a.SendBatch(b.Addr(), []Message{{Kind: KindPush}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Inbox():
		if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
			t.Fatalf("delivered after %v, want ≥ 30ms", elapsed)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestFabricCloseIsIdempotentAndDetaches(t *testing.T) {
	f := NewFabric()
	a, b := f.NewEndpoint(), f.NewEndpoint()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, open := <-b.Inbox(); open {
		t.Fatal("inbox not closed")
	}
	if err := a.SendBatch(b.Addr(), []Message{{Kind: KindPush}}); !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("send to closed endpoint: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.SendBatch("anywhere", []Message{{}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send from closed endpoint: %v", err)
	}
}

func TestFabricInboxOverflowDrops(t *testing.T) {
	f := NewFabric(WithInboxSize(2))
	a, b := f.NewEndpoint(), f.NewEndpoint()
	defer a.Close()
	defer b.Close()
	for i := 0; i < 10; i++ {
		if err := a.SendBatch(b.Addr(), []Message{{Kind: KindPush, Seq: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Exactly the first two fit; the rest were dropped silently.
	received := 0
	for {
		select {
		case <-b.Inbox():
			received++
		case <-time.After(50 * time.Millisecond):
			if received != 2 {
				t.Fatalf("received %d, want 2 (capacity)", received)
			}
			return
		}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	in := sampleMessage()
	in.From = "" // a plain endpoint stamps its own address
	if err := a.SendBatch(b.Addr(), []Message{in}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.Inbox():
		if got.Epoch != in.Epoch || got.Seq != in.Seq || got.From != a.Addr() {
			t.Fatalf("got %+v", got)
		}
		if got.To != b.Addr() {
			t.Fatalf("To = %q, want %q", got.To, b.Addr())
		}
		if len(got.Fields) != 3 || got.Fields[2] != math.Pi {
			t.Fatalf("fields = %v", got.Fields)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TCP message not delivered")
	}

	// A caller-set From (a multiplexed node's sub-address) is preserved,
	// and a sub-addressed destination rides the same base connection.
	sub := Message{Kind: KindPush, Seq: 8, From: a.Addr() + "#3"}
	if err := a.SendBatch(b.Addr()+"#5", []Message{sub}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.Inbox():
		if got.From != a.Addr()+"#3" || got.To != b.Addr()+"#5" {
			t.Fatalf("sub-addressed message got From=%q To=%q", got.From, got.To)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sub-addressed TCP message not delivered")
	}
}

func TestTCPBidirectional(t *testing.T) {
	a, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.SendBatch(b.Addr(), []Message{{Kind: KindPush, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Inbox():
		// Reply to the advertised listen address, as the protocol does.
		if err := b.SendBatch(m.From, []Message{{Kind: KindReply, Seq: m.Seq}}); err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("push not delivered")
	}
	select {
	case m := <-a.Inbox():
		if m.Kind != KindReply || m.Seq != 1 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reply not delivered")
	}
}

func TestTCPSendToDeadPeer(t *testing.T) {
	a, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Grab a port then release it so the dial fails fast.
	tmp, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := tmp.Addr()
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.SendBatch(dead, []Message{{Kind: KindPush}}); !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("err = %v, want ErrPeerUnreachable", err)
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	a, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, open := <-a.Inbox(); open {
		t.Fatal("inbox not closed")
	}
	if err := a.SendBatch("127.0.0.1:1", []Message{{}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if KindPush.String() != "push" || KindReply.String() != "reply" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind produced empty string")
	}
}

func TestFabricConcurrentSenders(t *testing.T) {
	// Many goroutines hammering one inbox: no race, no deadlock, no
	// message corruption (checked by the race detector + seq integrity).
	f := NewFabric(WithInboxSize(4096))
	dst := f.NewEndpoint()
	defer dst.Close()
	const senders, perSender = 8, 200
	done := make(chan struct{})
	for s := 0; s < senders; s++ {
		src := f.NewEndpoint()
		go func(src Endpoint) {
			defer func() { done <- struct{}{} }()
			defer src.Close()
			for i := 0; i < perSender; i++ {
				if err := src.SendBatch(dst.Addr(), []Message{{Kind: KindPush, Seq: uint64(i)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(src)
	}
	for s := 0; s < senders; s++ {
		<-done
	}
	received := 0
	for {
		select {
		case <-dst.Inbox():
			received++
		default:
			if received != senders*perSender {
				t.Fatalf("received %d, want %d", received, senders*perSender)
			}
			return
		}
	}
}

func TestTCPLargeMessage(t *testing.T) {
	// A full-size field vector survives the wire.
	a, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	fields := make([]float64, maxFields)
	for i := range fields {
		fields[i] = float64(i) * 0.5
	}
	if err := a.SendBatch(b.Addr(), []Message{{Kind: KindPush, Seq: 1, Fields: fields}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Inbox():
		if len(m.Fields) != maxFields || m.Fields[100] != 50 {
			t.Fatalf("large message corrupted: %d fields", len(m.Fields))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("large message not delivered")
	}
}

// TestTCPReaderRejectsSingleMessageFrame: every endpoint sends batch
// frames, so a well-formed single-message frame is a protocol
// violation. A batch frame on the same connection is delivered first;
// the single-message frame after it closes the connection and delivers
// nothing.
func TestTCPReaderRejectsSingleMessageFrame(t *testing.T) {
	e, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	m := sampleMessage()
	batch, err := AppendBatch(nil, []Message{m})
	if err != nil {
		t.Fatal(err)
	}
	single, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(framed(batch)); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-e.Inbox():
		if got.Seq != m.Seq || got.From != m.From {
			t.Fatalf("batch frame delivered %+v, want %+v", got, m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch frame not delivered")
	}
	if _, err := conn.Write(framed(single)); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = conn.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
		t.Fatalf("connection still open after a single-message frame (read: %v)", err)
	}
	select {
	case got := <-e.Inbox():
		t.Fatalf("single-message frame delivered %+v", got)
	default:
	}
	if want := uint64(len(batch) + len(single) + 8); e.BytesReceived() != want {
		t.Fatalf("reader took %d bytes, want both frames' %d", e.BytesReceived(), want)
	}
}
