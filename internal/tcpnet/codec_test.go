package tcpnet

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// streamMsg is message seq of a stream of register vectors in which each
// of the 4 registers changes every fourth message, one register per
// message, so three of every four payloads repeat the previous frame's.
func streamMsg(seq int) *wire.Message {
	reg := make(types.RegVector, 4)
	for k := range reg {
		reg[k] = types.TSValue{TS: int64(seq), Val: streamPayload(seq, k)}
	}
	return &wire.Message{Type: wire.TWriteAck, SSN: int64(seq), Reg: reg}
}

func streamPayload(seq, k int) types.Value {
	version := (seq + k) / 4
	return bytes.Repeat([]byte{byte(version*31 + k)}, 256)
}

// checkStreamMsg fails unless m carries exactly streamMsg(m.SSN)'s
// payloads.
func checkStreamMsg(t *testing.T, m *wire.Message) {
	t.Helper()
	want := streamMsg(int(m.SSN))
	if len(m.Reg) != len(want.Reg) {
		t.Fatalf("message %d: %d registers, want %d", m.SSN, len(m.Reg), len(want.Reg))
	}
	for k, e := range m.Reg {
		if e.TS != want.Reg[k].TS || !bytes.Equal(e.Val, want.Reg[k].Val) {
			t.Fatalf("message %d: register %d holds (%d, %x…), want (%d, %x…)", m.SSN, k, e.TS, e.Val[:min(4, len(e.Val))], want.Reg[k].TS, want.Reg[k].Val[:4])
		}
	}
}

// TestRepeatsElidedOnTheWire: a stream of mostly repeated register vectors
// arrives exactly, while the sender meters Size() per message less the
// bytes its writer elided — the bytes written to the socket.
func TestRepeatsElidedOnTheWire(t *testing.T) {
	m, err := NewMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const count = 40
	size := int64(0)
	for seq := 1; seq <= count; seq++ {
		msg := streamMsg(seq)
		size += int64(msg.Size())
		m.Transports[0].Send(0, 1, msg)
		got, ok := recvWithTimeout(t, m.Transports[1], 1)
		if !ok || got.SSN != int64(seq) {
			t.Fatalf("message %d: %+v ok=%v", seq, got, ok)
		}
		checkStreamMsg(t, got)
	}
	c := m.Transports[0].Counters()
	if c.Bytes(wire.TWriteAck) != size-c.ElidedBytes() {
		t.Errorf("metered %d bytes, want Size() total %d less %d elided", c.Bytes(wire.TWriteAck), size, c.ElidedBytes())
	}
	// Frames 1, 8, 16, 24, 32 and 40 go out whole; each of the other 34
	// elides the three registers that did not change.
	if want := int64(34 * 3 * 256); c.ElidedBytes() != want {
		t.Errorf("elided %d bytes, want %d", c.ElidedBytes(), want)
	}
	if n := m.Transports[1].Counters().BadFrames(); n != 0 {
		t.Errorf("%d bad frames on a healthy link", n)
	}
}

// TestRedialMidStreamRestartsTheStream: the link dies in the middle of a
// stream of repeated vectors and is dialled again. The new connection's
// reader starts with a fresh Decoder, so the writer must start a fresh
// Encoder: every message sent once the new link is up arrives, exactly, and
// no frame is rejected. (An Encoder carried over would send repeat markers
// the new Decoder cannot resolve.)
func TestRedialMidStreamRestartsTheStream(t *testing.T) {
	m, err := NewMeshWithOptions(2, Options{RedialBackoffMin: time.Millisecond, RedialBackoffMax: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	from, to := m.Transports[0], m.Transports[1]

	seq := 0
	for ; seq < 10; seq++ {
		from.Send(0, 1, streamMsg(seq))
		got, ok := recvWithTimeout(t, to, 1)
		if !ok || got.SSN != int64(seq) {
			t.Fatalf("message %d before the kill: %+v ok=%v", seq, got, ok)
		}
		checkStreamMsg(t, got)
	}

	old := link(from, 1)
	old.Close()
	// Messages sent while the link is down or coming up may be lost.
	eventually(t, "link redialled", func() bool {
		from.Send(0, 1, streamMsg(seq))
		seq++
		c := link(from, 1)
		return c != nil && c != old
	})
	first := seq
	for end := seq + 30; seq < end; seq++ {
		from.Send(0, 1, streamMsg(seq))
	}
	for want := first; want < seq; {
		got, ok := recvWithTimeout(t, to, 1)
		if !ok {
			t.Fatal("receiver closed")
		}
		checkStreamMsg(t, got)
		if got.SSN > int64(want) {
			t.Fatalf("message %d lost on the new link (got %d)", want, got.SSN)
		}
		if got.SSN == int64(want) {
			want++
		}
	}
	if n := to.Counters().BadFrames(); n != 0 {
		t.Errorf("%d frames rejected after the redial", n)
	}
}

// TestBadFramesMetered: a frame that fails to decode is skipped and counted.
func TestBadFramesMetered(t *testing.T) {
	m, err := NewMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	conn := dialRaw(t, m.Transports[0], 1)
	// A repeat marker on a fresh connection: nothing to resolve it with.
	var enc wire.Encoder
	enc.AppendMarshal(nil, streamMsg(1))
	repeat, elided := enc.AppendMarshal(nil, streamMsg(2))
	if elided == 0 {
		t.Fatal("nothing elided")
	}
	stream := append(rawFrame(repeat), rawFrame([]byte{0xEE})...)
	stream = append(stream, rawFrame(wire.Marshal(&wire.Message{Type: wire.TGossip, SNS: 7}))...)
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	if got, ok := recvWithTimeout(t, m.Transports[0], 0); !ok || got.SNS != 7 {
		t.Fatalf("frame after the bad ones: %+v ok=%v", got, ok)
	}
	if n := m.Transports[0].Counters().BadFrames(); n != 2 {
		t.Errorf("BadFrames = %d, want 2", n)
	}
	if s := m.Transports[0].Counters().Snapshot().String(); !strings.Contains(s, "bad-frames=2") {
		t.Errorf("counter dump does not show the bad frames:\n%s", s)
	}
}

// TestRetiredDialRestartsTheStream: node 1 dialled node 0 and sent repeated
// vectors on that connection; then node 0's own dial arrives, wins, and
// node 1 retires its connection. Node 0 reads each connection with a
// Decoder of its own, so node 1's frames on the adopted connection must
// start a fresh stream: they decode without error, exactly. Node 0 is
// played by the test.
func TestRetiredDialRestartsTheStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr, err := NewWithOptions(1, []string{ln.Addr().String(), "127.0.0.1:0"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	tr.Send(1, 0, streamMsg(1))
	tr.Send(1, 0, streamMsg(2))
	dialled, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer dialled.Close()
	dialled.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(dialled)
	var hello [4]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		t.Fatal(err)
	}
	var dec wire.Decoder
	for seq := 1; seq <= 2; seq++ {
		got, err := readRawFrame(br, &dec)
		if err != nil || got.SSN != int64(seq) {
			t.Fatalf("frame %d on node 1's dial: %+v, %v", seq, got, err)
		}
		checkStreamMsg(t, got)
	}

	own := dialRaw(t, tr, 0)
	eventually(t, "node 0's connection adopted", func() bool { return sameConn(link(tr, 0), own) })
	tr.Send(1, 0, streamMsg(3))
	tr.Send(1, 0, streamMsg(4))
	own.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ownDec wire.Decoder
	ownBr := bufio.NewReader(own)
	for seq := 3; seq <= 4; seq++ {
		got, err := readRawFrame(ownBr, &ownDec)
		if err != nil || got.SSN != int64(seq) {
			t.Fatalf("frame %d on node 0's connection: %+v, %v", seq, got, err)
		}
		checkStreamMsg(t, got)
	}
}

// TestOutboxEvictionKeepsTheStreamInStep: the writer encodes a message only
// when it writes it, so messages evicted from a full outbox never reach the
// Encoder and the stream the reader sees stays in step: every frame that
// arrives decodes, exactly. Node 0 is played by the test, which reads
// nothing until the sender has evicted.
func TestOutboxEvictionKeepsTheStreamInStep(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr, err := NewWithOptions(1, []string{ln.Addr().String(), "127.0.0.1:0"}, Options{OutboxCap: 4, WriteTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	tr.Send(1, 0, streamMsg(0))
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	seq := 1
	for start := time.Now(); tr.Counters().Evictions() == 0; seq++ {
		if time.Since(start) > 10*time.Second {
			t.Fatal("outbox never overflowed")
		}
		tr.Send(1, 0, streamMsg(seq))
	}
	last := seq
	tr.Send(1, 0, streamMsg(last))

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	var hello [4]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		t.Fatal(err)
	}
	var dec wire.Decoder
	for frames := 0; ; frames++ {
		got, err := readRawFrame(br, &dec)
		if err != nil {
			t.Fatalf("frame %d after %d evictions: %v", frames, tr.Counters().Evictions(), err)
		}
		checkStreamMsg(t, got)
		if got.SSN == int64(last) {
			break
		}
	}
}
