package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPEndpoint carries protocol messages over TCP with length-prefixed
// frames. Outbound connections are cached per destination; each accepted
// connection gets a reader goroutine feeding the inbox. The protocol is
// datagram-shaped (fire-and-forget pushes and replies), so a broken
// connection simply surfaces as message loss — which the protocol
// tolerates by design.
type TCPEndpoint struct {
	listener net.Listener
	addr     string // listener.Addr().String(), rendered once: Addr is called per hosted node and per defaulted From
	inbox    chan Message

	mu      sync.Mutex
	conns   map[string]*tcpConn // outbound, keyed by destination
	inbound map[net.Conn]struct{}
	// closed is only ever set under mu, which keeps it consistent with
	// conns and inbound for everyone deciding under mu; it is atomic so
	// the reader goroutines can poll it once per frame without the lock.
	closed atomic.Bool

	wg sync.WaitGroup

	// dialTimeout bounds connection establishment so a dead peer costs
	// one timeout, not a hung exchange loop; writeTimeout bounds each
	// frame write so a stalled peer (accepting but never reading) costs
	// one evicted connection, not a wedged sender. The heap runtime
	// multiplexes a whole shard behind one endpoint, so a single
	// unbounded write would stall every node of the shard.
	dialTimeout  time.Duration
	writeTimeout time.Duration

	// Traffic counters, one atomic add per frame or per rare event,
	// read lock-free by the metrics layer. dials counts completed
	// outbound connections, so dials beyond the peer count are
	// reconnects after evictions.
	dials     atomic.Uint64
	bytesSent atomic.Uint64
	bytesRecv atomic.Uint64
	inboxDrop atomic.Uint64
}

// tcpConn is one outbound connection with its own write lock, so a
// slow destination only serializes writes to itself, not the whole
// endpoint. enc is the connection's reusable encode buffer (guarded by
// wmu): each frame is assembled in it — length header included, so one
// kernel write ships the whole packet — and its capacity persists
// across sends, making steady-state encoding allocation-free. armed is
// when the connection's write deadline was last set (guarded by wmu).
type tcpConn struct {
	net.Conn
	wmu   sync.Mutex
	enc   []byte
	armed time.Time
}

var _ Endpoint = (*TCPEndpoint)(nil)

// NewTCPEndpoint listens on the given address ("127.0.0.1:0" for an
// ephemeral loopback port) and starts accepting peers.
func NewTCPEndpoint(listen string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listen, err)
	}
	e := &TCPEndpoint{
		listener:     ln,
		addr:         ln.Addr().String(),
		inbox:        make(chan Message, 1024),
		conns:        make(map[string]*tcpConn),
		inbound:      make(map[net.Conn]struct{}),
		dialTimeout:  2 * time.Second,
		writeTimeout: 5 * time.Second,
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr implements Endpoint; it returns the bound listen address, which is
// what peers must dial.
func (e *TCPEndpoint) Addr() string { return e.addr }

// Inbox implements Endpoint.
func (e *TCPEndpoint) Inbox() <-chan Message { return e.inbox }

// SendBatch implements Endpoint: the whole batch travels as one framed
// multi-message packet, amortizing the header, the connection lookup,
// the encode buffer and the kernel write across every coalesced
// message. The first send to a destination dials and caches the
// connection; send errors evict the cached connection so the next
// attempt redials. Sub-addresses ("host:port#node") dial the base
// host:port and share its connection; each message's To carries the
// full destination so a multiplexed receiver can demultiplex. The slice
// ms is not retained past the call; the messages are serialized, so the
// caller keeps ownership of their buffers.
func (e *TCPEndpoint) SendBatch(to string, ms []Message) error {
	for i := range ms {
		if ms[i].From == "" {
			ms[i].From = e.Addr()
		}
		if ms[i].To == "" {
			ms[i].To = to
		}
	}
	conn, err := e.conn(to)
	if err != nil {
		return e.connErr(to, err)
	}
	conn.wmu.Lock()
	buf, encErr := AppendBatch(append(conn.enc[:0], 0, 0, 0, 0), ms)
	return e.writeFramed(to, conn, buf, encErr)
}

// connErr normalizes a connection-establishment failure.
func (e *TCPEndpoint) connErr(to string, err error) error {
	if errors.Is(err, ErrClosed) {
		return err
	}
	return fmt.Errorf("%w: %s: %v", ErrPeerUnreachable, to, err)
}

// writeFramed backfills the 4-byte length header reserved at the front
// of buf and ships the packet with one kernel write. The caller holds
// conn.wmu and has encoded the payload into buf (which starts at
// conn.enc's storage); writeFramed banks the grown buffer for reuse and
// releases the lock.
func (e *TCPEndpoint) writeFramed(to string, conn *tcpConn, buf []byte, encErr error) error {
	payload := len(buf) - 4
	if encErr == nil && payload > maxFrameSize {
		encErr = fmt.Errorf("%w: frame of %d bytes", ErrMalformedMessage, payload)
	}
	if encErr != nil {
		conn.enc = buf[:0]
		conn.wmu.Unlock()
		return encErr
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(payload))
	// Re-arming the deadline costs a runtime timer update per call, so a
	// busy connection re-arms only once the armed deadline has aged by
	// half the timeout: every write is still bounded, by somewhere
	// between writeTimeout/2 and writeTimeout.
	var err error
	if now := time.Now(); now.Sub(conn.armed) > e.writeTimeout/2 {
		err = conn.SetWriteDeadline(now.Add(e.writeTimeout))
		conn.armed = now
	}
	if err == nil {
		var n int
		n, err = conn.Write(buf)
		e.bytesSent.Add(uint64(n))
	}
	conn.enc = buf[:0]
	conn.wmu.Unlock()
	if err != nil {
		e.evict(BaseAddr(to), conn)
		return fmt.Errorf("%w: %s: %v", ErrPeerUnreachable, to, err)
	}
	return nil
}

// conn returns a cached or freshly dialed connection to the destination.
// Sub-addresses share the base address's connection.
func (e *TCPEndpoint) conn(addr string) (*tcpConn, error) {
	to := BaseAddr(addr)
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	c, err := net.DialTimeout("tcp", to, e.dialTimeout)
	if err != nil {
		return nil, err
	}
	e.dials.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		_ = c.Close()
		return nil, ErrClosed
	}
	if prev, ok := e.conns[to]; ok {
		// Lost the dial race; keep the existing connection.
		_ = c.Close()
		return prev, nil
	}
	wrapped := &tcpConn{Conn: c}
	e.conns[to] = wrapped
	return wrapped, nil
}

// evict drops a broken cached connection.
func (e *TCPEndpoint) evict(to string, conn *tcpConn) {
	e.mu.Lock()
	if cur, ok := e.conns[to]; ok && cur == conn {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	_ = conn.Close()
}

// acceptLoop admits inbound peers until the listener closes.
func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed.Load() {
			e.mu.Unlock()
			_ = conn.Close()
			return
		}
		e.inbound[conn] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

// readLoop decodes frames from one inbound connection into the inbox.
// Every frame must be a batch frame; anything else — a bad length, a
// single-message frame, an undecodable batch — is a protocol violation
// and drops the connection.
func (e *TCPEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		_ = conn.Close()
		e.mu.Lock()
		delete(e.inbound, conn)
		e.mu.Unlock()
	}()
	// Buffered so a frame's header and body — and any frames queued
	// behind it — arrive with one read syscall instead of two per frame;
	// a body larger than the buffer is still read straight into rbuf.
	br := bufio.NewReaderSize(conn, 16<<10)
	var hdr [4]byte
	var rbuf []byte       // reusable frame read buffer (strings/fields are copied out by the decoder)
	var scratch []Message // reusable decode target
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		size := int(binary.BigEndian.Uint32(hdr[:]))
		if size == 0 || size > maxFrameSize {
			return // protocol violation; drop the connection
		}
		if cap(rbuf) < size {
			rbuf = make([]byte, size)
		}
		frame := rbuf[:size]
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		e.bytesRecv.Add(uint64(size + 4))
		ms, err := UnmarshalBatchInto(frame, scratch)
		if err != nil {
			return
		}
		scratch = ms
		if e.closed.Load() {
			return
		}
		for i := range ms {
			select {
			case e.inbox <- ms[i]:
			default: // inbox overflow: drop, like a saturated socket buffer
				e.inboxDrop.Add(1)
			}
		}
		// Delivered messages now belong to the inbox's consumer; zero the
		// scratch entries so the next decode cannot overwrite their
		// Fields/Gossip buffers.
		clear(ms)
	}
}

// Dials returns how many outbound connections have been established;
// growth beyond the peer count means reconnects after broken links.
func (e *TCPEndpoint) Dials() uint64 { return e.dials.Load() }

// BytesSent returns the total bytes written, framing included.
func (e *TCPEndpoint) BytesSent() uint64 { return e.bytesSent.Load() }

// BytesReceived returns the total bytes read, framing included.
func (e *TCPEndpoint) BytesReceived() uint64 { return e.bytesRecv.Load() }

// InboxDropped returns how many decoded inbound messages were dropped
// on a full inbox.
func (e *TCPEndpoint) InboxDropped() uint64 { return e.inboxDrop.Load() }

// Close implements Endpoint: it stops the listener, closes every cached
// connection, waits for reader goroutines and closes the inbox. It is
// idempotent.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return nil
	}
	e.closed.Store(true)
	conns := make([]net.Conn, 0, len(e.conns)+len(e.inbound))
	for _, c := range e.conns {
		conns = append(conns, c)
	}
	for c := range e.inbound {
		conns = append(conns, c)
	}
	e.conns = make(map[string]*tcpConn)
	e.mu.Unlock()

	err := e.listener.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	e.wg.Wait()
	close(e.inbox)
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("transport: close listener: %w", err)
	}
	return nil
}
