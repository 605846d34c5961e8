package main

import (
	"strings"
	"testing"
)

func TestRunWritesAndSnapshotsOverTCP(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{
		`register[0] = "tcp-hello-0" (write #1)`,
		`register[4] = "tcp-hello-4" (write #1)`,
		"transport health: ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("line %d: output lacks %q:\n%s", i, want, out.String())
		}
	}
}
