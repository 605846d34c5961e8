package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// rawFrame length-prefixes payload the way the transport does.
func rawFrame(payload []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// dialRaw opens a plain TCP connection to tr's listener and sends the hello
// of node id, standing in for a peer whose bytes the test controls.
func dialRaw(t *testing.T, tr *Transport, id uint32) net.Conn {
	t.Helper()
	conn := dialPlain(t, tr)
	if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, id)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// dialPlain opens a plain TCP connection to tr's listener and sends
// nothing.
func dialPlain(t *testing.T, tr *Transport) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// stalledListener accepts connections and never reads from them.
func stalledListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// TestFrameLargerThanReadWindow: a frame that does not fit the read window
// takes the read-into-its-own-buffer path; it must arrive whole, and leave
// the stream in step for the in-place frames around it.
func TestFrameLargerThanReadWindow(t *testing.T) {
	m, err := NewMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	big := make(types.Value, 2*readWindow)
	for i := range big {
		big[i] = byte(i * 7)
	}
	m.Transports[0].Send(0, 1, &wire.Message{Type: wire.TGossip, SNS: 1})
	m.Transports[0].Send(0, 1, &wire.Message{Type: wire.TWrite, SSN: 2, Reg: types.RegVector{{TS: 9, Val: big}}})
	m.Transports[0].Send(0, 1, &wire.Message{Type: wire.TGossip, SNS: 3})

	if got, ok := recvWithTimeout(t, m.Transports[1], 1); !ok || got.SNS != 1 {
		t.Fatalf("frame before the large one: %+v ok=%v", got, ok)
	}
	got, ok := recvWithTimeout(t, m.Transports[1], 1)
	if !ok || got.SSN != 2 || len(got.Reg) != 1 || got.Reg[0].TS != 9 {
		t.Fatalf("large frame: %+v ok=%v", got, ok)
	}
	if string(got.Reg[0].Val) != string(big) {
		t.Fatal("large payload corrupted in transit")
	}
	if got, ok := recvWithTimeout(t, m.Transports[1], 1); !ok || got.SNS != 3 {
		t.Fatalf("frame after the large one: %+v ok=%v", got, ok)
	}
}

// TestCorruptedFrameBetweenGoodFrames: three frames arrive in one read, the
// middle one with an invalid type byte. It is dropped; its neighbours are
// delivered in order, so the length prefix kept the stream in step.
func TestCorruptedFrameBetweenGoodFrames(t *testing.T) {
	m, err := NewMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	conn := dialRaw(t, m.Transports[0], 1)

	reg := types.RegVector{{TS: 1, Val: types.Value("same-bytes")}}
	bad := wire.Marshal(&wire.Message{Type: wire.TWrite, SSN: 2, Reg: reg})
	bad[0] = 0xEE
	var stream []byte
	stream = append(stream, rawFrame(wire.Marshal(&wire.Message{Type: wire.TWrite, From: 1, SSN: 1, Reg: reg}))...)
	stream = append(stream, rawFrame(bad)...)
	stream = append(stream, rawFrame(wire.Marshal(&wire.Message{Type: wire.TWriteAck, From: 1, SSN: 3, Reg: reg}))...)
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}

	for _, want := range []int64{1, 3} {
		got, ok := recvWithTimeout(t, m.Transports[0], 0)
		if !ok || got.SSN != want || got.From != 1 || got.To != 0 {
			t.Fatalf("want SSN %d from 1, got %+v ok=%v", want, got, ok)
		}
		if string(got.Reg[0].Val) != "same-bytes" {
			t.Fatalf("SSN %d: payload %q", want, got.Reg[0].Val)
		}
	}
	if n := m.Transports[0].QueueLen(); n != 0 {
		t.Errorf("%d extra messages delivered; the corrupted frame must be dropped", n)
	}
}

// TestSenderNamedByConnection: the sender of a frame is the peer whose
// connection carried it, not the From encoded in the frame. A frame on peer
// 1's connection that claims to come from node 2 arrives from 1, so one
// corrupted frame cannot make peer 1 count twice toward a quorum.
func TestSenderNamedByConnection(t *testing.T) {
	m, err := NewMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	conn := dialRaw(t, m.Transports[0], 1)
	if _, err := conn.Write(rawFrame(wire.Marshal(&wire.Message{Type: wire.TWriteAck, From: 2, SSN: 5}))); err != nil {
		t.Fatal(err)
	}
	got, ok := recvWithTimeout(t, m.Transports[0], 0)
	if !ok || got.SSN != 5 || got.From != 1 || got.To != 0 {
		t.Fatalf("want SSN 5 from 1 to 0, got %+v ok=%v", got, ok)
	}
}

// TestBadLengthPrefixClosesConnection: a zero or over-maxFrame length can
// only be corruption, and nothing after it can be trusted to be a frame
// boundary, so the transport closes the connection.
func TestBadLengthPrefixClosesConnection(t *testing.T) {
	m, err := NewMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for name, n := range map[string]uint32{"zero": 0, "over maxFrame": maxFrame + 1} {
		conn := dialRaw(t, m.Transports[0], 1)
		if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, n)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := conn.Read(make([]byte, 1))
		if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s length prefix: connection still open (read: %v)", name, err)
		}
	}
	// The transport itself is unharmed.
	conn := dialRaw(t, m.Transports[0], 1)
	if _, err := conn.Write(rawFrame(wire.Marshal(&wire.Message{Type: wire.TGossip, SNS: 7}))); err != nil {
		t.Fatal(err)
	}
	if got, ok := recvWithTimeout(t, m.Transports[0], 0); !ok || got.SNS != 7 {
		t.Fatalf("transport stopped accepting after corrupted streams: %+v ok=%v", got, ok)
	}
}

// hammerMessage builds a message whose payload bytes all follow from its
// header (sender goroutine in Tag, sequence in SSN), so a receiver can tell
// a frame that was overwritten after it was queued.
func hammerMessage(g, seq int) *wire.Message {
	reg := make(types.RegVector, 3)
	for k := range reg {
		val := make(types.Value, hammerLen(seq, k))
		for i := range val {
			val[i] = hammerByte(g, seq, k)
		}
		reg[k] = types.TSValue{TS: int64(seq), Val: val}
	}
	return &wire.Message{Type: wire.TWrite, Tag: uint64(g), SSN: int64(seq), Reg: reg}
}

func hammerLen(seq, k int) int      { return 1024 + 128*((seq+k)%5) }
func hammerByte(g, seq, k int) byte { return byte(seq*31 + g*7 + k) }

// hammerChecker verifies one receiver's deliveries: every message carries
// exactly the payload its header calls for, in per-sender order.
type hammerChecker struct {
	t    *testing.T
	peer int
	last []int64
}

func (c *hammerChecker) check(m *wire.Message) {
	g := int(m.Tag)
	if g >= len(c.last) || len(m.Reg) != 3 {
		c.t.Errorf("peer %d: malformed message %+v", c.peer, m)
		return
	}
	if m.SSN <= c.last[g] {
		c.t.Errorf("peer %d: sender %d seq %d after %d", c.peer, g, m.SSN, c.last[g])
	}
	c.last[g] = m.SSN
	for k, e := range m.Reg {
		if e.TS != m.SSN || len(e.Val) != hammerLen(int(m.SSN), k) {
			c.t.Errorf("peer %d: sender %d seq %d entry %d: ts %d len %d", c.peer, g, m.SSN, k, e.TS, len(e.Val))
			return
		}
		want := hammerByte(g, int(m.SSN), k)
		for _, b := range e.Val {
			if b != want {
				c.t.Errorf("peer %d: sender %d seq %d entry %d holds foreign bytes", c.peer, g, m.SSN, k)
				return
			}
		}
	}
}

// TestSharedFramesNeverRecycledWhileQueued hammers the send path: several
// goroutines SendMany (and Send) to three live peers, one slow peer and one
// wedged peer. The slow peer reads a frame a millisecond while the senders
// run, so its writer blocks, its outbox overflows, and the messages queued
// for it are still waiting long after the live peers' writers have written
// theirs; the wedged peer never reads, so its writes are abandoned on
// WriteTimeout. Envelopes are thus shared, evicted, dropped and encoded by
// several writers all at once. Loss is allowed — these are lossy channels —
// but whatever arrives, at the slow peer too, must be what was sent: a
// buffer reused while a queue still held it, or an Encoder that counted a
// frame its reader never saw, would arrive as another message's bytes. Run
// under -race.
func TestSharedFramesNeverRecycledWhileQueued(t *testing.T) {
	const live, senders, perSender = 3, 3, 1500
	const slow, wedged = live + 1, live + 2
	addrs := make([]string, live+3)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	addrs[wedged] = stalledListener(t)

	var checking sync.WaitGroup
	sendersDone := make(chan struct{})

	// The slow peer speaks the frame format by hand, one connection after
	// another (the sender redials after an abandoned write), each opened by
	// the sender's hello and read with a fresh Decoder.
	slowLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer slowLn.Close()
	addrs[slow] = slowLn.Addr().String()
	checking.Add(1)
	go func() {
		defer checking.Done()
		c := &hammerChecker{t: t, peer: slow, last: make([]int64, senders)}
		for {
			conn, err := slowLn.Accept()
			if err != nil {
				return
			}
			br := bufio.NewReader(conn)
			var dec wire.Decoder
			var hello [4]byte
			if _, err := io.ReadFull(br, hello[:]); err != nil {
				conn.Close()
				continue
			}
			if id := binary.LittleEndian.Uint32(hello[:]); id != 0 {
				t.Errorf("peer %d: hello names node %d, want the sender 0", slow, id)
			}
			for {
				var hdr [4]byte
				if _, err := io.ReadFull(br, hdr[:]); err != nil {
					break
				}
				buf := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
				if _, err := io.ReadFull(br, buf); err != nil {
					break // a frame cut short by an abandoned write
				}
				m, err := dec.Unmarshal(buf)
				if err != nil {
					t.Errorf("peer %d: undecodable frame: %v", slow, err)
					break
				}
				c.check(m)
				select {
				case <-sendersDone:
				default:
					time.Sleep(time.Millisecond)
				}
			}
			conn.Close()
		}
	}()

	recv := make([]*Transport, live+1)
	for k := 1; k <= live; k++ {
		tr, err := NewWithOptions(k, addrs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		recv[k] = tr
		addrs[k] = tr.Addr()
		checking.Add(1)
		go func(k int) {
			defer checking.Done()
			c := &hammerChecker{t: t, peer: k, last: make([]int64, senders)}
			for {
				m, ok := tr.Recv(k)
				if !ok {
					return
				}
				c.check(m)
			}
		}(k)
	}
	sender, err := NewWithOptions(0, addrs, Options{OutboxCap: 8, WriteTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	// Wedge the wedged peer before the hammer starts: paced so that only a
	// writer blocked on full socket buffers can let its outbox overflow.
	big := &wire.Message{Type: wire.TWrite, Reg: types.RegVector{{TS: 1, Val: make(types.Value, 64<<10)}}}
	for start := time.Now(); sender.Counters().Evictions() == 0; time.Sleep(200 * time.Microsecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("could not wedge the wedged peer")
		}
		sender.Send(0, wedged, big)
	}

	var sending sync.WaitGroup
	for g := 0; g < senders; g++ {
		sending.Add(1)
		go func(g int) {
			defer sending.Done()
			all := []int{1, 2, 3, slow, wedged}
			for seq := 1; seq <= perSender; seq++ {
				if seq%4 == 0 {
					sender.Send(0, 1+seq%live, hammerMessage(g, seq))
					sender.Send(0, slow, hammerMessage(g, seq))
				} else {
					sender.SendMany(0, all, hammerMessage(g, seq))
				}
			}
		}(g)
	}
	sending.Wait()
	close(sendersDone)
	// Let the writers drain what is still queued, and the wedged peer's
	// blocked write run into its deadline, then stop.
	for start := time.Now(); sender.Counters().WriteFailures() == 0; time.Sleep(10 * time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Error("no write to the wedged peer was abandoned; the hammer did not exercise the failure path")
			break
		}
	}
	sender.Close()
	for k := 1; k <= live; k++ {
		recv[k].Close()
	}
	slowLn.Close()
	checking.Wait()
}

// TestStalledWriteAbandonedWithinWriteTimeout: the write deadline is not
// re-armed before every write, but a write that makes no progress must still
// be given up, and its connection closed, within WriteTimeout.
func TestStalledWriteAbandonedWithinWriteTimeout(t *testing.T) {
	const writeTimeout = 300 * time.Millisecond
	tr, err := NewWithOptions(0, []string{"127.0.0.1:0", stalledListener(t)}, Options{WriteTimeout: writeTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	big := &wire.Message{Type: wire.TWrite, Reg: types.RegVector{{TS: 1, Val: make(types.Value, 64<<10)}}}
	start := time.Now()
	for tr.Counters().WriteFailures() == 0 {
		if time.Since(start) > 10*time.Second {
			t.Fatal("stalled write never abandoned")
		}
		tr.Send(0, 1, big)
		time.Sleep(time.Millisecond)
	}
	// The socket buffers fill within milliseconds of the first write, so the
	// stall began at most a moment after start; generous slack for a loaded
	// machine, still far from a deadline pushed out by every write.
	if elapsed := time.Since(start); elapsed > writeTimeout+2*time.Second {
		t.Errorf("stalled write abandoned after %v, want within WriteTimeout %v of stalling", elapsed, writeTimeout)
	}
	if tr.Counters().Drops() == 0 {
		t.Error("abandoned write not counted as a loss")
	}
}

// TestIdleConnectionOutlivesWriteDeadline: a deadline armed for one write
// expires while the link is idle; the next write must re-arm it, not fail
// on it.
func TestIdleConnectionOutlivesWriteDeadline(t *testing.T) {
	m, err := NewMeshWithOptions(2, Options{WriteTimeout: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := int64(1); i <= 3; i++ {
		m.Transports[0].Send(0, 1, &wire.Message{Type: wire.TGossip, SNS: i})
		if got, ok := recvWithTimeout(t, m.Transports[1], 1); !ok || got.SNS != i {
			t.Fatalf("message %d after an idle period: %+v ok=%v", i, got, ok)
		}
		time.Sleep(100 * time.Millisecond)
	}
	c := m.Transports[0].Counters()
	if c.WriteFailures() != 0 || c.Drops() != 0 || c.Reconnects() != 1 {
		t.Errorf("idle link: %d write failures, %d drops, %d connections; want 0, 0, 1", c.WriteFailures(), c.Drops(), c.Reconnects())
	}
}
