package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"selfstabsnap/internal/simclock"
)

func TestRunRejectsBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-alg", "paxos"},
		{"-n", "2"},
		{"-writes", "many"},
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}); !errors.Is(err, errUsage) {
			t.Errorf("run %q: got %v, want a usage error", args, err)
		}
	}
}

// TestDemoOnVirtualClock runs the whole demo, storm and trace included, on
// a virtual clock: the run is deterministic and takes no wall time. Links
// have delays, so the storm's writes take virtual time and its sleep ends.
func TestDemoOnVirtualClock(t *testing.T) {
	o, err := parse([]string{"-alg", "ss-delta", "-n", "5", "-writes", "4", "-snapshots", "2",
		"-writers", "3", "-storm", "20ms", "-maxdelay", "1ms", "-corrupt", "-trace"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	v := simclock.NewVirtual()
	v.Run("snapdemo", func() {
		err = demo(context.Background(), o, v, &out)
	})
	if err != nil {
		t.Fatalf("demo: %v\n%s", err, &out)
	}
	for _, want := range []string{
		"4 writes from node 0",
		"transient fault injected",
		"storm: ",
		"snapshot 1 (",
		"traffic:",
		"message-sequence trace:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, &out)
		}
	}
}
