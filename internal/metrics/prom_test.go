package metrics

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"selfstabsnap/internal/obs"
	"selfstabsnap/internal/wire"
)

// TestWritePrometheusMatchesSnapshot pins the equivalence between the
// Prometheus rendering and Snapshot: every per-type series and every
// transport counter carries exactly the snapshot's value.
func TestWritePrometheusMatchesSnapshot(t *testing.T) {
	var c Counters
	c.RecordSend(wire.TWrite, 100)
	c.RecordSend(wire.TWrite, 150)
	c.RecordSendMany(wire.TGossip, 3, 40)
	c.RecordSend(wire.TWriteAck, 60)
	c.RecordDrop()
	c.RecordDup()
	c.RecordDup()
	c.RecordEviction()
	c.RecordReconnect()
	c.RecordWriteFailure()
	c.RecordInvalidType()
	c.RecordInvalidObj()
	c.RecordInvalidObj()
	c.RecordBadFrame()
	c.RecordElided(wire.TWrite, 30)
	c.RecordGossipFull(40)
	c.RecordGossipDelta(12)
	c.RecordGossipDelta(12)
	c.RecordGossipSuppressed()

	var buf bytes.Buffer
	c.WritePrometheus(&buf)
	assertPromMatchesSnapshot(t, &buf, c.Snapshot())
}

// TestMetricsEndpointMatchesSnapshot is the live-wire version: an
// obs.Server with the counters registered as a collector, scraped over
// real HTTP, must return parseable Prometheus text whose per-type message
// counters match Snapshot exactly.
func TestMetricsEndpointMatchesSnapshot(t *testing.T) {
	var c Counters
	c.RecordSend(wire.TWrite, 128)
	c.RecordSendMany(wire.TSnapshot, 5, 64)
	c.RecordSend(wire.TSnapshotAck, 32)
	c.RecordDrop()
	c.RecordEviction()

	srv := obs.NewServer("127.0.0.1:0")
	srv.AddCollector(func(w io.Writer) { c.WritePrometheus(w) })
	if err := srv.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	assertPromMatchesSnapshot(t, resp.Body, c.Snapshot())
}

// assertPromMatchesSnapshot parses Prometheus text from r and checks that
// every counter Snapshot knows about appears with exactly its value.
func assertPromMatchesSnapshot(t *testing.T, r io.Reader, s Snapshot) {
	t.Helper()
	series, err := obs.ParsePrometheus(r)
	if err != nil {
		t.Fatalf("malformed Prometheus text: %v", err)
	}
	want := map[string]int64{
		"selfstabsnap_messages_all_total":       s.Messages,
		"selfstabsnap_message_bytes_all_total":  s.Bytes,
		"selfstabsnap_drops_total":              s.Drops,
		"selfstabsnap_dups_total":               s.Dups,
		"selfstabsnap_evictions_total":          s.Evictions,
		"selfstabsnap_reconnects_total":         s.Reconnects,
		"selfstabsnap_write_failures_total":     s.WriteFailures,
		"selfstabsnap_invalid_types_total":      s.InvalidTypes,
		"selfstabsnap_invalid_objs_total":       s.InvalidObjs,
		"selfstabsnap_bad_frames_total":         s.BadFrames,
		"selfstabsnap_elided_bytes_total":       s.ElidedBytes,
		"selfstabsnap_gossip_full_total":        s.GossipFull,
		"selfstabsnap_gossip_full_bytes_total":  s.GossipFullBytes,
		"selfstabsnap_gossip_delta_total":       s.GossipDelta,
		"selfstabsnap_gossip_delta_bytes_total": s.GossipDeltaBytes,
		"selfstabsnap_gossip_suppressed_total":  s.GossipSuppressed,
	}
	for typ, tc := range s.PerType {
		want[fmt.Sprintf("selfstabsnap_messages_total{type=%q}", typ.String())] = tc.Messages
		want[fmt.Sprintf("selfstabsnap_message_bytes_total{type=%q}", typ.String())] = tc.Bytes
	}
	for name, v := range want {
		got, ok := series[name]
		if !ok {
			t.Errorf("series %s missing from export", name)
			continue
		}
		if int64(got) != v {
			t.Errorf("%s = %v, want %d (snapshot)", name, got, v)
		}
	}
	// No phantom per-type series for types the snapshot has no traffic on.
	for name := range series {
		if len(name) > 0 && name[len(name)-1] == '}' {
			if _, ok := want[name]; !ok {
				t.Errorf("export has labelled series %s not present in snapshot", name)
			}
		}
	}
}
