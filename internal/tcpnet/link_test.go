package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"selfstabsnap/internal/wire"
)

// link returns tr's link to peer k — the connection frames to k are
// written on — or nil.
func link(tr *Transport, k int) net.Conn {
	p := tr.peers[k]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

// openConns is the number of connections tr holds open, dialled or
// accepted.
func openConns(tr *Transport) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.conns)
}

// eventually fails the test unless cond holds within 5 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting: %s", what)
		}
	}
}

// sameConn reports whether a and b are the two ends of one TCP connection.
func sameConn(a, b net.Conn) bool {
	return a != nil && b != nil &&
		a.LocalAddr().String() == b.RemoteAddr().String() &&
		a.RemoteAddr().String() == b.LocalAddr().String()
}

// oneLinkPerPair waits until every pair of trs (trs[i] is node i) shares
// exactly one connection: each transport holds n−1 open connections, and
// i's link to j is the other end of j's link to i.
func oneLinkPerPair(t *testing.T, trs []*Transport) {
	t.Helper()
	eventually(t, "one connection per pair", func() bool {
		for i, a := range trs {
			if openConns(a) != len(trs)-1 {
				return false
			}
			for j, b := range trs {
				if i != j && !sameConn(link(a, j), link(b, i)) {
					return false
				}
			}
		}
		return true
	})
}

// TestSimultaneousDialOneLinkPerPair: every node of a fresh mesh sends to
// every other at once, so both ends of each pair dial. They settle on one
// connection per pair, and every frame, in both directions, is delivered
// exactly once. Repeated on fresh meshes, since which dial lands first
// varies.
func TestSimultaneousDialOneLinkPerPair(t *testing.T) {
	const n, perPeer, rounds = 4, 50, 5
	for r := 0; r < rounds; r++ {
		m, err := NewMesh(n)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var sending sync.WaitGroup
		for i, tr := range m.Transports {
			var others []int
			for k := 0; k < n; k++ {
				if k != i {
					others = append(others, k)
				}
			}
			sending.Add(1)
			go func(i int, tr *Transport) {
				defer sending.Done()
				<-start
				for seq := 1; seq <= perPeer; seq++ {
					tr.SendMany(i, others, &wire.Message{Type: wire.TGossip, SNS: int64(seq)})
				}
			}(i, tr)
		}
		close(start)
		sending.Wait()

		dials := int64(0)
		for i, tr := range m.Transports {
			seen := make(map[[2]int64]bool)
			for k := 0; k < (n-1)*perPeer; k++ {
				got, ok := recvWithTimeout(t, tr, i)
				key := [2]int64{int64(got.From), got.SNS}
				if !ok || seen[key] {
					t.Fatalf("round %d node %d: delivery %d: %+v ok=%v (already seen: %v)", r, i, k, got, ok, seen[key])
				}
				seen[key] = true
			}
			dials += tr.Counters().Reconnects()
		}
		oneLinkPerPair(t, m.Transports)
		for i, tr := range m.Transports {
			if q := tr.QueueLen(); q != 0 {
				t.Errorf("round %d node %d: %d deliveries beyond one per frame sent", r, i, q)
			}
			if c := tr.Counters(); c.Drops() != 0 || c.Evictions() != 0 {
				t.Errorf("round %d node %d: %d drops, %d evictions on loss-free localhost", r, i, c.Drops(), c.Evictions())
			}
		}
		t.Logf("round %d: %d links installed by a dial for %d pairs", r, dials, n*(n-1)/2)
		m.Close()
	}
}

// readRawFrame reads one length-prefixed frame from a connection the test
// speaks by hand, and decodes it with that connection's Decoder.
func readRawFrame(br *bufio.Reader, dec *wire.Decoder) (*wire.Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	payload := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, err
	}
	return dec.Unmarshal(payload)
}

// TestLosingDialRetiredNotDropped: node 1 dialled node 0, then accepts node
// 0's own connection. The lower id's dial wins, so node 1 adopts it and
// retires its own: it half-closes that connection, so node 0 reads EOF after
// everything written on it, and keeps reading it, so a frame node 0 sent on
// it meanwhile is still delivered. Node 0 is played by the test.
func TestLosingDialRetiredNotDropped(t *testing.T) {
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

	tr.Send(1, 0, &wire.Message{Type: wire.TGossip, SNS: 1})
	dialled, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer dialled.Close()
	dialled.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(dialled)
	var hello [4]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil || binary.LittleEndian.Uint32(hello[:]) != 1 {
		t.Fatalf("hello %v, err %v; want node 1", hello, err)
	}
	var dec wire.Decoder
	if got, err := readRawFrame(br, &dec); err != nil || got.SNS != 1 {
		t.Fatalf("first frame on node 1's dial: %+v, %v", got, err)
	}

	own := dialRaw(t, tr, 0)
	eventually(t, "node 0's connection adopted", func() bool { return sameConn(link(tr, 0), own) })
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("node 1's retired dial: read %v, want EOF", err)
	}
	if _, err := dialled.Write(rawFrame(wire.Marshal(&wire.Message{Type: wire.TGossip, From: 0, SNS: 2}))); err != nil {
		t.Fatal(err)
	}
	if got, ok := recvWithTimeout(t, tr, 1); !ok || got.SNS != 2 {
		t.Fatalf("frame sent on the retired connection: %+v ok=%v", got, ok)
	}

	tr.Send(1, 0, &wire.Message{Type: wire.TGossip, SNS: 3})
	own.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got, err := readRawFrame(bufio.NewReader(own), new(wire.Decoder)); err != nil || got.SNS != 3 {
		t.Fatalf("frame after the switch, on node 0's connection: %+v, %v", got, err)
	}
}

// TestPeerRestartRelinks: a node's transport is closed and re-created on
// the same address. Both directions deliver again, over one connection.
func TestPeerRestartRelinks(t *testing.T) {
	opts := Options{RedialBackoffMin: 5 * time.Millisecond, RedialBackoffMax: 20 * time.Millisecond}
	m, err := NewMeshWithOptions(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	a := m.Transports[0]
	addrs := []string{a.Addr(), m.Transports[1].Addr()}

	// exchange sends both ways until each side has received a frame numbered
	// from base (frames sent while a link settles may be lost, and frames of
	// an earlier incarnation may still be queued), then checks the pair
	// shares one connection.
	exchange := func(b *Transport, base int64) {
		t.Helper()
		received := func(tr *Transport, id int) bool {
			for tr.QueueLen() > 0 {
				if got, ok := tr.Recv(id); ok && got.SNS >= base {
					return true
				}
			}
			return false
		}
		aGot, bGot := false, false
		deadline := time.Now().Add(5 * time.Second)
		for seq := base; !aGot || !bGot; seq++ {
			if time.Now().After(deadline) {
				t.Fatalf("no delivery from base %d: to 0 %v, to 1 %v", base, aGot, bGot)
			}
			a.Send(0, 1, &wire.Message{Type: wire.TGossip, SNS: seq})
			b.Send(1, 0, &wire.Message{Type: wire.TGossip, SNS: seq})
			time.Sleep(time.Millisecond)
			aGot = aGot || received(a, 0)
			bGot = bGot || received(b, 1)
		}
		oneLinkPerPair(t, []*Transport{a, b})
	}

	exchange(m.Transports[1], 1)
	m.Transports[1].Close()
	b, err := NewWithOptions(1, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	exchange(b, 1_000_000)
}

// TestBadHelloClosesConnection: a connection whose hello names a node out of
// range or the acceptor itself, or that sends no whole hello within
// DialTimeout, is closed; nothing sent on it is delivered, and it never
// becomes a link.
func TestBadHelloClosesConnection(t *testing.T) {
	m, err := NewMeshWithOptions(2, Options{DialTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tr := m.Transports[0]
	frame := rawFrame(wire.Marshal(&wire.Message{Type: wire.TGossip, From: 1, SNS: 7}))
	for _, c := range []struct {
		name  string
		bytes []byte
	}{
		{"out of range", append(binary.LittleEndian.AppendUint32(nil, 2), frame...)},
		{"far out of range", append(binary.LittleEndian.AppendUint32(nil, math.MaxUint32), frame...)},
		{"own id", append(binary.LittleEndian.AppendUint32(nil, 0), frame...)},
		{"cut short", []byte{1, 0}},
		{"none", nil},
	} {
		conn := dialPlain(t, tr)
		if _, err := conn.Write(c.bytes); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := conn.Read(make([]byte, 1))
		if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s hello: connection still open (read: %v)", c.name, err)
		}
	}
	eventually(t, "rejected connections closed", func() bool { return openConns(tr) == 0 })
	if q := tr.QueueLen(); q != 0 {
		t.Errorf("%d messages delivered from connections with a bad hello", q)
	}
	if link(tr, 1) != nil {
		t.Error("a connection with a bad hello became the link")
	}
}
