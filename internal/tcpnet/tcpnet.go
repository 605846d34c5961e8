// Package tcpnet is a real-network implementation of the netsim.Transport
// interface: length-prefixed frames of wire-encoded messages over TCP. It
// lets the same algorithm code that runs on the in-memory simulator run
// across actual sockets — one node per process (cmd/tcpnode) or a whole
// cluster on localhost (examples/tcpcluster).
//
// Each unordered pair of nodes {i, j} shares one TCP connection, used for
// frames in both directions — the paper's §2 bidirectional channel, so a
// request and its acknowledgment travel on one socket and the kernel's ACKs
// ride on data segments. Either node dials lazily, on its first frame for the
// other, and opens the connection with a hello: its own node id, 4 bytes
// little-endian, before any frame. The acceptor reads the hello within
// DialTimeout and closes the connection if the id is missing, out of range or
// its own. When both nodes dial at once, the connection the lower id dialled
// wins: the higher id half-closes its own and keeps reading it until the peer
// closes its end, so no frame written on either connection is lost. TCP keeps
// each connection FIFO; a frame still in flight on a retired connection may
// arrive after a newer one sent on the winner, which §2's channels allow.
//
// Failure semantics deliberately mirror the paper's §2 channel model, and
// are identical to the in-memory simulator's (asserted by the shared
// conformance test in internal/transporttest):
//
//   - a frame that cannot be written (peer down, connection reset) is
//     silently dropped and counted as a loss; the algorithms'
//     retransmission ("repeat broadcast until") provides the
//     fair-communication recovery, exactly as over the simulated lossy
//     network;
//   - the receive path is a bounded drop-oldest inbox (internal/mailbox):
//     a stalled or slow receiver loses the *oldest* queued messages —
//     metered as evictions — instead of exerting backpressure on senders,
//     which would violate the model's bounded-capacity lossy channels;
//   - the send path is asynchronous: Send hands the message to a per-peer
//     writer goroutine through a bounded drop-oldest outbox, so a stalled
//     TCP peer (zero-window, mid-dial, dead) costs the sender an eviction
//     counter, never a blocking conn.Write — the paper's never-blocking
//     sends;
//   - failed peers are re-dialed with exponential backoff plus jitter, so
//     a dead peer costs one cheap in-memory check per frame instead of a
//     synchronous dial.
//
// # Frames
//
// A frame is a 4-byte little-endian length, then one message encoded by the
// connection's wire.Encoder and decoded by the wire.Decoder of the reader at
// the other end. Each direction of a connection is one stream: the writer
// makes a fresh Encoder whenever the connection it writes on changes (a
// dial, an adopted connection, a connection retired after a simultaneous
// dial), and every reader starts a fresh Decoder. The Encoder
// writes a Message.Reg payload equal to the one the receiving Decoder holds
// at that position as a repeat marker — the payload's length field set to
// 0xFFFFFFFF, which no frame can hold — and the Decoder substitutes its
// cached copy, so a register vector costs on the wire only the entries that
// changed since the sender's previous frame on that connection. Only the
// writer encodes, immediately before the write, so a message evicted from
// the outbox never advances the Encoder past what the reader sees.
//
// Refresh rule: every 8th vector-carrying frame on a connection is written
// with no repeat marker, and the two caches agree after any such frame,
// whatever they held before. A frame that fails to decode is skipped whole
// (the length prefix keeps the stream in step) and metered as a bad frame;
// after it the Decoder rejects every repeat marker until a vector-carrying
// frame without one arrives, so a message is never built from a cache the
// Encoder may not share, and at most the frames before the next refresh are
// lost — channel loss the algorithms' retransmissions already absorb.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"selfstabsnap/internal/mailbox"
	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/wire"
)

// maxFrame bounds accepted frames; bigger ones indicate corruption and
// close the connection.
const maxFrame = 16 << 20

// readWindow is the size of each inbound connection's read buffer. One read
// fills it with as many whole frames as have arrived (a dozen 5-entry
// ν = 1024 register vectors), and every frame that fits is decoded where it
// lies; only a frame longer than the window is read into a buffer of its
// own.
const readWindow = 64 << 10

// Options tunes a Transport. The zero value gets production defaults.
type Options struct {
	// InboxCap bounds the receive queue (drop-oldest on overflow;
	// default 4096) — the same bounded channel capacity as netsim.
	InboxCap int
	// OutboxCap bounds each peer's outbound frame queue (drop-oldest on
	// overflow, metered as evictions; default 4096). Together with the
	// per-peer writer goroutines this keeps Send non-blocking: a stalled
	// peer overflows its outbox instead of stalling the caller.
	OutboxCap int
	// DialTimeout bounds each connection attempt (default 1s).
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write (default 2s): a write that
	// makes no progress is abandoned, and its connection closed, at most
	// WriteTimeout after it started. The writer re-arms the connection's
	// deadline only when less than half of WriteTimeout remains on it, not
	// before every write, so a stalled write is given between half of
	// WriteTimeout and all of it.
	WriteTimeout time.Duration
	// RedialBackoffMin is the first wait after a failed dial (default
	// 50ms); it doubles per consecutive failure up to RedialBackoffMax
	// (default 2s), with uniform jitter of up to half the backoff added.
	RedialBackoffMin time.Duration
	RedialBackoffMax time.Duration
	// WriteBatch bounds how many queued messages one writer drain cycle
	// encodes into a single write (default 64). A burst of sends to one
	// peer then costs one syscall and one deadline update instead of one
	// each per frame. 1 restores the frame-at-a-time writer.
	WriteBatch int
}

func (o Options) withDefaults() Options {
	if o.InboxCap <= 0 {
		o.InboxCap = 4096
	}
	if o.OutboxCap <= 0 {
		o.OutboxCap = 4096
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 2 * time.Second
	}
	if o.RedialBackoffMin <= 0 {
		o.RedialBackoffMin = 50 * time.Millisecond
	}
	if o.RedialBackoffMax < o.RedialBackoffMin {
		o.RedialBackoffMax = 2 * time.Second
		if o.RedialBackoffMax < o.RedialBackoffMin {
			o.RedialBackoffMax = o.RedialBackoffMin
		}
	}
	if o.WriteBatch <= 0 {
		o.WriteBatch = 64
	}
	return o
}

// maxRetainedBurst bounds the write buffer a writer keeps between bursts:
// one burst of unusually large frames must not pin its size for good.
const maxRetainedBurst = 1 << 20

// peer is this node's side of the link to one other node: a bounded
// drop-oldest queue of messages drained by a dedicated writer goroutine,
// the connection frames are written on (if up), the codec state of that
// connection and the redial backoff state. Only the writer dials, encodes
// and writes, so senders never touch the socket; the mutex orders the
// writer against adopt and against the readLoop that clears a dead link.
type peer struct {
	outbox *mailbox.Queue[*wire.Message] // nil for the self peer (loopback skips sockets)

	// Touched by the writer goroutine alone.
	backoff  time.Duration
	nextDial time.Time
	enc      wire.Encoder // the encoding end of encConn's stream
	encConn  net.Conn     // the connection enc encodes for
	buf      []byte       // the burst being written, frames back to back
	ends     []int        // the end offset in buf of each frame of the burst

	mu       sync.Mutex
	conn     net.Conn  // the link; nil until dialled or accepted, and after it dies
	dialled  bool      // conn was dialled by this node, not accepted
	deadline time.Time // write deadline armed on conn; zero on a fresh connection
}

// Transport is a single node's TCP endpoint. It implements
// netsim.Transport for its own node id only (Recv of a foreign id fails),
// which is all a node.Runtime requires.
type Transport struct {
	self  int
	addrs []string
	opts  Options

	listener net.Listener
	counters metrics.Counters

	mu     sync.Mutex // guards closed, rng and conns
	rng    *rand.Rand // backoff jitter
	closed bool
	conns  map[net.Conn]struct{} // every open connection, dialled or accepted; closed on shutdown

	peers []*peer
	inbox *mailbox.Queue[*wire.Message]
	wg    sync.WaitGroup
}

// New creates a transport with default Options for node self of the
// cluster whose node i listens on addrs[i], and starts listening. Each pair
// of nodes shares one connection: whichever side sends first dials it,
// introducing itself with its id, and the other adopts it for its own
// frames. When both dial at once the lower id's connection wins. A link
// that dies is re-dialed, with backoff after failures, on the next frame.
func New(self int, addrs []string) (*Transport, error) {
	return NewWithOptions(self, addrs, Options{})
}

// NewWithOptions is New with explicit tuning.
func NewWithOptions(self int, addrs []string, opts Options) (*Transport, error) {
	if self < 0 || self >= len(addrs) {
		return nil, fmt.Errorf("tcpnet: self %d out of range of %d addrs", self, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addrs[self], err)
	}
	return newTransport(self, addrs, ln, opts), nil
}

// newTransport starts node self's transport on ln, already bound to its
// address.
func newTransport(self int, addrs []string, ln net.Listener, opts Options) *Transport {
	opts = opts.withDefaults()
	t := &Transport{
		self:     self,
		addrs:    append([]string(nil), addrs...),
		opts:     opts,
		listener: ln,
		rng:      rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(self)<<32)),
		conns:    make(map[net.Conn]struct{}),
		peers:    make([]*peer, len(addrs)),
		inbox:    mailbox.New[*wire.Message](opts.InboxCap),
	}
	for i := range t.peers {
		t.peers[i] = &peer{}
		if i == self {
			continue // loopback never goes through a socket
		}
		t.peers[i].outbox = mailbox.New[*wire.Message](opts.OutboxCap)
		t.wg.Add(1)
		go t.writeLoop(t.peers[i], i)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t
}

// Addr returns the address this node actually listens on (useful with
// ":0" configs).
func (t *Transport) Addr() string { return t.listener.Addr().String() }

// N returns the cluster size.
func (t *Transport) N() int { return len(t.addrs) }

// Counters exposes the traffic meters.
func (t *Transport) Counters() *metrics.Counters { return &t.counters }

// QueueLen reports the number of received messages waiting in the inbox.
func (t *Transport) QueueLen() int { return t.inbox.Len() }

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return
		}
		if !t.track(conn) {
			conn.Close()
			return
		}
		t.wg.Add(1)
		go t.serveAccepted(conn)
	}
}

// serveAccepted reads an accepted connection's hello — on its own
// goroutine, so a peer that never sends one cannot hold up acceptLoop —
// then offers the connection to adopt and reads frames from it.
func (t *Transport) serveAccepted(conn net.Conn) {
	defer t.wg.Done()
	var hello [4]byte
	conn.SetReadDeadline(time.Now().Add(t.opts.DialTimeout))
	_, err := io.ReadFull(conn, hello[:])
	id := binary.LittleEndian.Uint32(hello[:])
	if err != nil || id >= uint32(len(t.addrs)) || int(id) == t.self {
		conn.Close()
		t.untrack(conn)
		return
	}
	conn.SetReadDeadline(time.Time{})
	t.adopt(conn, int(id))
	t.readLoop(conn, int(id))
}

// adopt makes conn, accepted from peer k, the link to k, unless the link
// is a connection this node dialled and this node's id is the lower: the
// lower id's dial wins, so two simultaneous dials settle on one connection.
// A connection of this node's that loses is retired — half-closed, so the
// peer reads everything written on it and then closes it, which ends the
// readLoop here. A replaced accepted connection is one its dialler has
// already given up, and is left to its readLoop.
func (t *Transport) adopt(conn net.Conn, k int) {
	p := t.peers[k]
	p.mu.Lock()
	old, oldDialled := p.conn, p.dialled
	if old != nil && oldDialled && t.self < k {
		p.mu.Unlock()
		return
	}
	p.conn, p.dialled, p.deadline = conn, false, time.Time{}
	p.mu.Unlock()
	if old != nil && oldDialled {
		old.(*net.TCPConn).CloseWrite()
	}
}

// track registers conn to be closed at shutdown. It reports false, leaving
// conn to the caller to close, once the transport is closed.
func (t *Transport) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

func (t *Transport) untrack(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// readLoop delivers the frames peer k sends on conn, dialled or accepted,
// until the connection ends. It then closes conn and, if conn is still the
// link to k, clears the link, so the next frame to k redials.
func (t *Transport) readLoop(conn net.Conn, k int) {
	defer func() {
		conn.Close() // first: fails a write blocked on it rather than waiting for it
		p := t.peers[k]
		p.mu.Lock()
		if p.conn == conn {
			p.conn = nil
		}
		p.mu.Unlock()
		t.untrack(conn)
	}()
	// A frame that fits the read window is decoded where it lies: the codec
	// copies every byte it keeps, so the window is free for the next read as
	// soon as Unmarshal returns. The decoder is per connection: it resolves
	// the repeat markers of the Encoder at the other end of this stream.
	br := bufio.NewReaderSize(conn, readWindow)
	var dec wire.Decoder
	for {
		hdr, err := br.Peek(4)
		if err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(hdr))
		if n == 0 || n > maxFrame {
			return // corrupted stream; drop the connection
		}
		br.Discard(4) // cannot fail: the bytes are buffered
		inPlace := n <= readWindow
		var payload []byte
		if inPlace {
			payload, err = br.Peek(n)
		} else {
			payload = make([]byte, n)
			_, err = io.ReadFull(br, payload)
		}
		if err != nil {
			return
		}
		m, err := dec.Unmarshal(payload)
		if inPlace {
			// The length prefix, not the decoder, delimits the frame: a
			// corrupted frame is skipped whole and the stream stays in step.
			br.Discard(n)
		}
		if err != nil {
			// Corrupted, or a repeat the decoder cannot trust:
			// self-stabilization demands we drop, not crash.
			t.counters.RecordBadFrame()
			continue
		}
		// The receiver stamps both ends of the link: a broadcast shares
		// one envelope across all peers, so the wire To field is not
		// per-recipient, and a frame that arrived here is, by
		// construction, addressed to this node from peer k. The encoded
		// From is not trusted: quorum calls count distinct senders, and a
		// corrupted From would let peer k count as another node.
		m.From, m.To = int32(k), int32(t.self)
		t.accept(m)
	}
}

// accept enqueues an arriving message, metering drop-oldest evictions. It
// never blocks: a full inbox loses its oldest message, as in the model's
// bounded-capacity channels.
func (t *Transport) accept(m *wire.Message) {
	if t.inbox.Push(m) {
		t.counters.RecordEviction()
	}
}

// Send implements netsim.Transport. from must be this node's id. The
// message gets a copy-on-write envelope over the caller's payload (payload
// contents are immutable after send, per the Transport contract), which is
// delivered directly on loopback and otherwise queued to the peer's writer
// goroutine — Send itself never encodes, performs network I/O or blocks. A
// message that cannot be delivered (transport closed, outbox overflow, peer
// unreachable or in dial backoff, write failure) is lost and metered,
// matching the simulator's lossy bounded-capacity channels. Sends are
// metered here, at Size() bytes — a transmission is counted even if the
// frame is later lost, exactly as the simulator meters sends the adversary
// drops; the writer subtracts what it elides (metrics.Counters).
func (t *Transport) Send(from, to int, m *wire.Message) {
	if from != t.self || to < 0 || to >= len(t.addrs) {
		return
	}
	env := m.ShallowClone()
	env.From, env.To = int32(from), int32(to)
	t.counters.RecordSend(env.Type, env.Size())
	if to == t.self {
		t.accept(env) // loopback delivery without a socket
		return
	}
	t.enqueue(to, env)
}

// SendMany implements the netsim.ManySender broadcast fast path: one
// envelope is queued to every recipient's writer, each of which encodes it
// with its own connection's Encoder (writers only read envelopes, so
// sharing is safe). The shared envelope cannot carry a per-recipient To, so
// it is stamped with -1 and the receiving transport rewrites To on arrival
// — as every readLoop does for all frames. Metering is identical to a Send
// loop: one send of Size() bytes per recipient, each metered before it is
// queued.
func (t *Transport) SendMany(from int, to []int, m *wire.Message) {
	if from != t.self {
		return
	}
	var env *wire.Message
	for _, k := range to {
		switch {
		case k == t.self:
			t.Send(from, k, m)
		case k >= 0 && k < len(t.addrs):
			if env == nil {
				env = m.ShallowClone()
				env.From, env.To = int32(from), -1 // To is stamped by the receiver
			}
			t.counters.RecordSend(env.Type, env.Size())
			t.enqueue(k, env)
		}
	}
}

// enqueue hands a message to peer to's writer goroutine. An overflowing
// outbox loses its oldest message — the sender-side half of the model's
// bounded-capacity channel — metered as an eviction.
func (t *Transport) enqueue(to int, m *wire.Message) {
	if t.peers[to].outbox.Push(m) {
		t.counters.RecordEviction()
	}
}

// writeLoop is peer to's writer goroutine: it drains the outbox in bursts
// — one blocking Pop, then non-blocking TryPops up to WriteBatch — and
// hands each burst to a single write. All encoding and blocking I/O of the
// send path happens here, off the caller's critical path.
func (t *Transport) writeLoop(p *peer, to int) {
	defer t.wg.Done()
	batch := make([]*wire.Message, 0, t.opts.WriteBatch)
	for {
		m, ok := p.outbox.Pop()
		if !ok {
			return
		}
		batch = append(batch[:0], m)
		for len(batch) < t.opts.WriteBatch {
			next, ok := p.outbox.TryPop()
			if !ok {
				break
			}
			batch = append(batch, next)
		}
		t.writeFrames(p, to, batch)
		clear(batch)
	}
}

// writeFrames encodes a burst of messages into frames and writes them with
// one write, dialing if necessary. Frames that cannot be written promptly
// (peer in dial backoff, dead connection, write timeout) are dropped and
// metered — the writer moves on to newer frames rather than retrying,
// leaving recovery to the algorithms' repeated broadcasts, exactly as over
// the simulated lossy network. A message dropped before it is encoded
// keeps the full size it was metered at. On a mid-burst write error only
// the frames not wholly written count as dropped.
func (t *Transport) writeFrames(p *peer, to int, batch []*wire.Message) {
	p.mu.Lock()
	if p.conn == nil {
		p.mu.Unlock()
		t.dial(p, to)
		p.mu.Lock()
	}
	conn := p.conn
	if conn == nil {
		p.mu.Unlock()
		for range batch {
			t.counters.RecordDrop()
		}
		return
	}
	if conn != p.encConn {
		// A new connection is a new stream, read by a fresh Decoder.
		p.enc, p.encConn = wire.Encoder{}, conn
	}
	b, ends := p.buf[:0], p.ends[:0]
	for _, m := range batch {
		start := len(b)
		b = append(b, 0, 0, 0, 0) // the length, set once the frame is encoded
		var elided int
		b, elided = p.enc.AppendMarshal(b, m)
		binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
		if elided > 0 {
			t.counters.RecordElided(m.Type, elided)
		}
		ends = append(ends, len(b))
	}
	p.buf, p.ends = b, ends
	if cap(p.buf) > maxRetainedBurst {
		p.buf = nil
	}
	// Re-arming the deadline costs a poller timer update; with more than
	// half of WriteTimeout left on it, the armed one still bounds this
	// write well enough (see Options.WriteTimeout).
	if now := time.Now(); p.deadline.Sub(now) < t.opts.WriteTimeout/2 {
		p.deadline = now.Add(t.opts.WriteTimeout)
		conn.SetWriteDeadline(p.deadline)
	}
	if n, err := conn.Write(b); err != nil {
		p.conn = nil
		p.mu.Unlock()
		conn.Close()
		t.counters.RecordWriteFailure()
		for _, end := range ends {
			if end > n {
				t.counters.RecordDrop()
			}
		}
		return
	}
	p.mu.Unlock()
}

// dial connects to peer to, honouring the redial backoff, and makes the new
// connection the link — sending the hello first — unless a connection the
// lower-id peer dialled became the link meanwhile, in which case the new
// one is closed before it carries a byte. It runs on p's writer goroutine
// (writers to *other* peers are unaffected) without p.mu, so neither adopt
// nor shutdown waits behind a dial; only the install takes the lock. A
// failed attempt doubles the backoff and adds jitter, so a dead peer costs
// one time comparison per frame until the window expires.
func (t *Transport) dial(p *peer, to int) {
	now := time.Now()
	if now.Before(p.nextDial) || t.isClosed() {
		return
	}
	conn, err := net.DialTimeout("tcp", t.addrs[to], t.opts.DialTimeout)
	if err != nil {
		if p.backoff < t.opts.RedialBackoffMin {
			p.backoff = t.opts.RedialBackoffMin
		} else {
			p.backoff *= 2
			if p.backoff > t.opts.RedialBackoffMax {
				p.backoff = t.opts.RedialBackoffMax
			}
		}
		p.nextDial = now.Add(p.backoff + t.jitter(p.backoff/2))
		return
	}
	p.backoff, p.nextDial = 0, time.Time{}
	if !t.track(conn) {
		conn.Close()
		return
	}
	p.mu.Lock()
	if p.conn != nil && t.self > to {
		p.mu.Unlock()
		conn.Close()
		t.untrack(conn)
		return
	}
	// A connection this replaces was accepted from the peer, which retires
	// it once it adopts this one.
	deadline := time.Now().Add(t.opts.WriteTimeout)
	conn.SetWriteDeadline(deadline)
	if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, uint32(t.self))); err != nil {
		p.mu.Unlock()
		conn.Close()
		t.untrack(conn)
		return
	}
	p.conn, p.dialled, p.deadline = conn, true, deadline
	p.mu.Unlock()
	t.counters.RecordReconnect()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.readLoop(conn, to)
	}()
}

// jitter draws a uniform duration in [0, bound).
func (t *Transport) jitter(bound time.Duration) time.Duration {
	if bound <= 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.rng.Int63n(int64(bound)))
}

func (t *Transport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Recv implements netsim.Transport for this node's own id. After close,
// buffered messages are drained before ok turns false.
func (t *Transport) Recv(id int) (*wire.Message, bool) {
	if id != t.self {
		return nil, false
	}
	return t.inbox.Pop()
}

// CloseEndpoint implements netsim.Transport; closing a node's endpoint is
// closing the whole single-node transport.
func (t *Transport) CloseEndpoint(id int) {
	if id == t.self {
		t.signalClose()
	}
}

func (t *Transport) signalClose() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	t.listener.Close()
	for _, p := range t.peers {
		if p.outbox != nil {
			// Pending frames are channel content lost on shutdown; drain
			// before closing so writer goroutines exit without attempting
			// further writes.
			p.outbox.Drain()
			p.outbox.Close()
		}
	}
	for _, c := range conns {
		c.Close() // unblock readLoops stuck mid-frame and writes stuck mid-burst
	}
	t.inbox.Close()
}

// Close shuts the transport down and waits for its goroutines.
func (t *Transport) Close() {
	t.signalClose()
	t.wg.Wait()
}

// Mesh is a convenience for in-process multi-node clusters over localhost:
// one Transport per node, all wired to each other.
type Mesh struct {
	Transports []*Transport
}

// NewMesh creates n transports with default Options listening on
// ephemeral localhost ports.
func NewMesh(n int) (*Mesh, error) {
	return NewMeshWithOptions(n, Options{})
}

// NewMeshWithOptions is NewMesh with explicit per-transport tuning.
func NewMeshWithOptions(n int, opts Options) (*Mesh, error) {
	// Bind every listener on :0 to learn the ports, and hand each to its
	// transport still bound, so no other process can take a port between.
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	m := &Mesh{}
	for i, ln := range lns {
		m.Transports = append(m.Transports, newTransport(i, addrs, ln, opts))
	}
	return m, nil
}

// Close shuts every transport down.
func (m *Mesh) Close() {
	for _, t := range m.Transports {
		if t != nil {
			t.Close()
		}
	}
}
