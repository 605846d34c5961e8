package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestRunRejectsBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-alg", "paxos"},
		{"-alg", "dg-nonblocking", "-corrupt"},
		{"-alg", "ss-delta", "-max-int", "64"},
		{"-runs", "some"},
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}); !errors.Is(err, errUsage) {
			t.Errorf("run %q: got %v, want a usage error", args, err)
		}
	}
}

// TestRunShortVirtualRuns fuzzes two seeds sequentially and a four-seed
// campaign, both on the virtual clock.
func TestRunShortVirtualRuns(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-alg", "ss-delta", "-runs", "2", "-duration", "50ms", "-corrupt", "-virtual"}, "2 runs"},
		{[]string{"-campaign", "-alg", "ss-nonblocking", "-runs", "4", "-duration", "50ms", "-workers", "1", "-ack-corrupt", "20"}, "4 seeds"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), tc.args, &out); err != nil {
			t.Fatalf("run %q: %v\n%s", tc.args, err, &out)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("run %q: no %q summary:\n%s", tc.args, tc.want, &out)
		}
	}
}

// TestRunStopsWhenCancelled: a cancelled context stops sequential mode
// before its next seed.
func TestRunStopsWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-runs", "3", "-duration", "50ms", "-virtual"}, &bytes.Buffer{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
