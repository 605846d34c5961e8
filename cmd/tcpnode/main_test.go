package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is an io.Writer that a running node and the test may share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freeAddrs returns n loopback addresses whose ports were free a moment
// ago.
func freeAddrs(t *testing.T, n int) string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return strings.Join(addrs, ",")
}

func TestRunRejectsBadCommandLines(t *testing.T) {
	peers := "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3"
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-peers", "127.0.0.1:1,127.0.0.1:2"},
		{"-peers", peers, "-alg", "paxos"},
		{"-peers", peers, "-objects", "0"},
		{"-peers", peers, "-delta", "-1"},
		{"-peers", peers, "-write", "x", "-interval", "0"},
	} {
		err := run(context.Background(), args, &syncBuffer{})
		if !errors.Is(err, errUsage) {
			t.Errorf("run %q: got %v, want a usage error", args, err)
		}
	}
}

// TestRunServesAClusterUntilCancelled starts three nodes in-process, lets
// node 0 write and node 1 snapshot, then stops them one at a time.
func TestRunServesAClusterUntilCancelled(t *testing.T) {
	for _, alg := range []string{"ss-delta", "ss-bounded"} {
		t.Run(alg, func(t *testing.T) {
			peers := freeAddrs(t, 3)
			extra := [][]string{
				{"-write", "v", "-interval", "10ms", "-snapshot-every", "0"},
				{"-snapshot-every", "20ms"},
				{"-snapshot-every", "0"},
			}
			outs := make([]*syncBuffer, 3)
			cancels := make([]context.CancelFunc, 3)
			errs := make([]chan error, 3)
			for i := range outs {
				ctx, cancel := context.WithCancel(context.Background())
				outs[i], cancels[i], errs[i] = &syncBuffer{}, cancel, make(chan error, 1)
				args := append([]string{"-id", strconv.Itoa(i), "-peers", peers, "-alg", alg}, extra[i]...)
				go func(i int) { errs[i] <- run(ctx, args, outs[i]) }(i)
			}
			deadline := time.Now().Add(20 * time.Second)
			for !strings.Contains(outs[0].String(), "wrote") || !strings.Contains(outs[1].String(), "snapshot obj 0") {
				if time.Now().After(deadline) {
					cancels[0]()
					cancels[1]()
					cancels[2]()
					t.Fatalf("no write and snapshot within 20s:\n%s\n%s", outs[0], outs[1])
				}
				time.Sleep(10 * time.Millisecond)
			}
			// The idle node stops last, so the others keep a majority for
			// any operation in flight when they are cancelled.
			for i := range outs {
				cancels[i]()
				if err := <-errs[i]; err != nil {
					t.Fatalf("node %d: %v", i, err)
				}
				if !strings.Contains(outs[i].String(), "shutting down; traffic:") {
					t.Errorf("node %d printed no traffic dump:\n%s", i, outs[i])
				}
			}
		})
	}
}
