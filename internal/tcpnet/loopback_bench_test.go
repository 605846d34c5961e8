//go:build unix

package tcpnet

import (
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

// BenchmarkLoopbackFrameSize sizes what the kernel charges for a frame on
// loopback, with no tcpnet code in the way: two goroutines ping-pong
// length-delimited frames of a fixed size over raw TCP sockets, and the
// process's CPU time (user + system, getrusage) is divided by the frames
// moved. The sizes are the tcp-alg1 workload's: 300 B is a GOSSIP, 1 300 B
// one register entry at ν = 1024, 5 286 B the 5-entry vector every WRITE,
// SNAPSHOT and ack carries.
//
// "one-conn" is tcpnet's shape — both directions of a node pair share one
// connection; "two-conns" is its old one, each direction on its own
// connection dialled by its sender.
//
// It sized the tcpnet changes recorded in EXPERIMENTS.md "Loopback frame
// cost": cpu-µs/frame barely moves between 300 B and 5 286 B, so the
// read/writev share of tcp-alg1's profile is paid per frame, not per byte,
// and one connection per pair is cheaper per frame than two.
func BenchmarkLoopbackFrameSize(b *testing.B) {
	for _, shape := range []string{"two-conns", "one-conn"} {
		for _, size := range []int{300, 1300, 5286} {
			b.Run(fmt.Sprintf("%s/%dB", shape, size), func(b *testing.B) {
				pingTx, pongRx := loopbackPair(b)
				pongTx, pingRx := pongRx, pingTx
				if shape == "two-conns" {
					pongTx, pingRx = loopbackPair(b)
				}
				benchPingPong(b, size, pingTx, pongRx, pongTx, pingRx)
			})
		}
	}
}

// loopbackPair returns the two ends of a fresh loopback TCP connection,
// closed when the benchmark ends.
func loopbackPair(b *testing.B) (dialled, accepted net.Conn) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	dialled, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	accepted, err = ln.Accept()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		dialled.Close()
		accepted.Close()
	})
	return dialled, accepted
}

// benchPingPong moves 2·b.N frames: ping writes one on pingTx, pong reads
// it whole from pongRx and answers on pongTx, ping reads the answer from
// pingRx.
func benchPingPong(b *testing.B, size int, pingTx, pongRx, pongTx, pingRx net.Conn) {
	pongErr := make(chan error, 1)
	go func() {
		buf := make([]byte, size)
		for {
			if _, err := io.ReadFull(pongRx, buf); err != nil {
				if err == io.EOF {
					err = nil // ping closed its end: the benchmark is over
				}
				pongErr <- err
				return
			}
			if _, err := pongTx.Write(buf); err != nil {
				pongErr <- err
				return
			}
		}
	}()

	buf := make([]byte, size)
	b.SetBytes(int64(2 * size))
	cpu0 := processCPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pingTx.Write(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(pingRx, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cpu := processCPU() - cpu0
	b.ReportMetric(float64(cpu.Microseconds())/float64(2*b.N), "cpu-µs/frame")

	pingTx.Close()
	if err := <-pongErr; err != nil {
		b.Errorf("pong side: %v", err)
	}
}

// processCPU is the process's user + system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
