// Package transport carries the aggregation protocol's messages between
// nodes. Two interchangeable implementations are provided: an in-memory
// Fabric with configurable latency, loss and partitions (for simulation
// and tests) and a TCP transport over the loopback or a real network
// (stdlib net only). Both speak the same binary wire format, so the
// asynchronous engine is transport-agnostic.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
)

// Kind discriminates protocol messages.
type Kind uint8

// Message kinds of the push-pull exchange (Figure 1): the active node
// sends a push carrying its approximation, the passive node answers with
// a reply carrying the transfer the initiator adds to its own
// (core.Schema.MergeExchange).
const (
	KindPush Kind = iota + 1
	KindReply
	// KindNack tells the initiator its push was declined (the peer had
	// its own exchange in flight) so it can abort immediately instead of
	// waiting out the reply timeout.
	KindNack
)

// String returns the lowercase kind name.
func (k Kind) String() string {
	switch k {
	case KindPush:
		return "push"
	case KindReply:
		return "reply"
	case KindNack:
		return "nack"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is one protocol datagram.
type Message struct {
	// Kind is push or reply.
	Kind Kind
	// Epoch tags the message with the sender's epoch identifier (§4);
	// receivers in an older epoch jump forward, stale messages are
	// dropped.
	Epoch uint64
	// Seq pairs a reply with the push that solicited it.
	Seq uint64
	// From is the sender's transport address. Multiplexed runtimes use
	// sub-addresses of the form "endpoint#node", so From may be finer
	// grained than the endpoint that carried the message.
	From string
	// To is the destination address the sender used. Endpoints hosting
	// many nodes behind one address (the heap runtime) demultiplex
	// inbound messages on it; single-node endpoints can ignore it.
	To string
	// Fields is the sender's state vector (one entry per schema field).
	Fields []float64
	// Gossip piggybacks a few peer addresses for lightweight membership
	// dissemination (Newscast-style).
	Gossip []string
	// GossipAges carries one logical age per Gossip entry (0 = the
	// sender heard from that peer this round). Encoded as a single byte,
	// saturating at MaxGossipAge; a missing or short slice encodes as
	// age 0.
	GossipAges []uint32
}

// MaxGossipAge is the largest age the wire format can carry; older
// entries saturate. Views evict long before this in practice.
const MaxGossipAge = 255

// Wire format limits; generous for the protocol's tiny messages while
// bounding what a malformed frame can make us allocate.
const (
	maxAddrLen   = 1 << 10
	maxFields    = 1 << 12
	maxGossip    = 1 << 10
	maxFrameSize = 1 << 20
)

// Errors reported by the codec and transports.
var (
	// ErrMalformedMessage reports an undecodable or oversized frame.
	ErrMalformedMessage = errors.New("transport: malformed message")
	// ErrPeerUnreachable reports a send to an unknown or closed address.
	ErrPeerUnreachable = errors.New("transport: peer unreachable")
	// ErrClosed reports use of a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
)

// wireSize returns the encoded frame length, validating the variable
// parts against the wire limits.
func (m *Message) wireSize() (int, error) {
	if len(m.From) > maxAddrLen {
		return 0, fmt.Errorf("%w: from address %d bytes", ErrMalformedMessage, len(m.From))
	}
	if len(m.To) > maxAddrLen {
		return 0, fmt.Errorf("%w: to address %d bytes", ErrMalformedMessage, len(m.To))
	}
	if len(m.Fields) > maxFields {
		return 0, fmt.Errorf("%w: %d fields", ErrMalformedMessage, len(m.Fields))
	}
	if len(m.Gossip) > maxGossip {
		return 0, fmt.Errorf("%w: %d gossip entries", ErrMalformedMessage, len(m.Gossip))
	}
	size := 1 + 8 + 8 + 2 + len(m.From) + 2 + len(m.To) + 2 + 8*len(m.Fields) + 2
	for _, g := range m.Gossip {
		if len(g) > maxAddrLen {
			return 0, fmt.Errorf("%w: gossip address %d bytes", ErrMalformedMessage, len(g))
		}
		size += 2 + len(g) + 1
	}
	return size, nil
}

// AppendBinary appends the message's frame to buf and returns the
// extended slice, in the layout
//
//	kind u8 | epoch u64 | seq u64 | from u16+bytes | to u16+bytes |
//	nfields u16 + f64s | ngossip u16 + (u16+bytes + age u8)*
//
// using big-endian integers and IEEE-754 bits for floats. Passing a
// reused buffer (buf[:0] of a previous call) makes encoding
// allocation-free once the buffer has grown to its steady-state size.
func (m *Message) AppendBinary(buf []byte) ([]byte, error) {
	if _, err := m.wireSize(); err != nil {
		return buf, err
	}
	buf = append(buf, byte(m.Kind))
	buf = binary.BigEndian.AppendUint64(buf, m.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.From)))
	buf = append(buf, m.From...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.To)))
	buf = append(buf, m.To...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Fields)))
	for _, f := range m.Fields {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Gossip)))
	for i, g := range m.Gossip {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(g)))
		buf = append(buf, g...)
		age := uint32(0)
		if i < len(m.GossipAges) {
			age = m.GossipAges[i]
		}
		if age > MaxGossipAge {
			age = MaxGossipAge
		}
		buf = append(buf, byte(age))
	}
	return buf, nil
}

// MarshalBinary encodes the message into a freshly allocated,
// exactly-sized frame. Hot paths reuse a caller-owned buffer with
// AppendBinary instead.
func (m *Message) MarshalBinary() ([]byte, error) {
	size, err := m.wireSize()
	if err != nil {
		return nil, err
	}
	return m.AppendBinary(make([]byte, 0, size))
}

// UnmarshalBinary decodes a frame produced by MarshalBinary or
// AppendBinary. The decoded Fields and Gossip reuse m's existing
// backing arrays when they have capacity (append-into semantics), so a
// caller that recycles its Message values decodes without allocating
// new vectors; pass a zero Message for fully fresh slices. Decoded
// strings always allocate.
func (m *Message) UnmarshalBinary(b []byte) error {
	r := reader{buf: b}
	kind := r.u8()
	m.Epoch = r.u64()
	m.Seq = r.u64()
	fromLen := int(r.u16())
	if fromLen > maxAddrLen {
		return fmt.Errorf("%w: from length %d", ErrMalformedMessage, fromLen)
	}
	m.From = string(r.bytes(fromLen))
	toLen := int(r.u16())
	if toLen > maxAddrLen {
		return fmt.Errorf("%w: to length %d", ErrMalformedMessage, toLen)
	}
	m.To = string(r.bytes(toLen))
	nf := int(r.u16())
	if nf > maxFields {
		return fmt.Errorf("%w: field count %d", ErrMalformedMessage, nf)
	}
	m.Fields = m.Fields[:0]
	for i := 0; i < nf; i++ {
		m.Fields = append(m.Fields, math.Float64frombits(r.u64()))
	}
	ng := int(r.u16())
	if ng > maxGossip {
		return fmt.Errorf("%w: gossip count %d", ErrMalformedMessage, ng)
	}
	m.Gossip = m.Gossip[:0]
	m.GossipAges = m.GossipAges[:0]
	for i := 0; i < ng; i++ {
		gl := int(r.u16())
		if gl > maxAddrLen {
			return fmt.Errorf("%w: gossip length %d", ErrMalformedMessage, gl)
		}
		m.Gossip = append(m.Gossip, string(r.bytes(gl)))
		m.GossipAges = append(m.GossipAges, uint32(r.u8()))
	}
	if r.failed || r.pos != len(b) {
		return fmt.Errorf("%w: %d bytes, consumed %d", ErrMalformedMessage, len(b), r.pos)
	}
	switch kind := Kind(kind); kind {
	case KindPush, KindReply, KindNack:
		m.Kind = kind
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrMalformedMessage, kind)
	}
	return nil
}

// reader is a bounds-checked cursor; failed latches on the first
// out-of-bounds read so the caller checks once at the end.
type reader struct {
	buf    []byte
	pos    int
	failed bool
}

func (r *reader) bytes(n int) []byte {
	if r.failed || n < 0 || r.pos+n > len(r.buf) {
		r.failed = true
		return nil
	}
	out := r.buf[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *reader) u8() uint8 {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// BaseAddr strips a sub-address suffix ("endpoint#node" → "endpoint"),
// returning the routable endpoint address. Multiplexed runtimes host many
// protocol nodes behind one endpoint and address them with such suffixes;
// transports route on the base address and receivers demultiplex on
// Message.To. Addresses without a '#' are returned unchanged.
func BaseAddr(addr string) string {
	if i := strings.IndexByte(addr, '#'); i >= 0 {
		return addr[:i]
	}
	return addr
}

// SubAddr joins an endpoint address with a node index into a sub-address
// ("endpoint#node"), the inverse of BaseAddr.
func SubAddr(addr string, node int) string {
	return fmt.Sprintf("%s#%d", addr, node)
}

// Endpoint is one node's attachment to a transport: an address, a way to
// send to other addresses and an inbox of received messages. The inbox
// channel is closed when the endpoint is closed.
type Endpoint interface {
	// Addr returns the endpoint's routable address.
	Addr() string
	// Send delivers (or drops, per the transport's loss model) a message
	// to the given address. Send never blocks on the receiver.
	Send(to string, m Message) error
	// Inbox returns the channel of received messages.
	Inbox() <-chan Message
	// Close releases the endpoint and closes the inbox.
	Close() error
}
