package metrics

import (
	"fmt"
	"io"
	"sort"

	"selfstabsnap/internal/wire"
)

// WritePrometheus renders every counter in Prometheus text exposition
// format: one labelled series per message type for counts and bytes, plus
// one series per transport-level counter. The numbers are loaded through
// Snapshot, so a scrape and a Snapshot taken at the same quiesced moment
// agree exactly — the equivalence the live-export tests pin.
func (c *Counters) WritePrometheus(w io.Writer) {
	s := c.Snapshot()
	tt := make([]wire.Type, 0, len(s.PerType))
	for t := range s.PerType {
		tt = append(tt, t)
	}
	sort.Slice(tt, func(i, j int) bool { return tt[i] < tt[j] })

	fmt.Fprintf(w, "# TYPE selfstabsnap_messages_total counter\n")
	for _, t := range tt {
		fmt.Fprintf(w, "selfstabsnap_messages_total{type=%q} %d\n", t.String(), s.PerType[t].Messages)
	}
	fmt.Fprintf(w, "# TYPE selfstabsnap_message_bytes_total counter\n")
	for _, t := range tt {
		fmt.Fprintf(w, "selfstabsnap_message_bytes_total{type=%q} %d\n", t.String(), s.PerType[t].Bytes)
	}
	for _, row := range []struct {
		name string
		v    int64
	}{
		{"selfstabsnap_messages_all_total", s.Messages},
		{"selfstabsnap_message_bytes_all_total", s.Bytes},
		{"selfstabsnap_drops_total", s.Drops},
		{"selfstabsnap_dups_total", s.Dups},
		{"selfstabsnap_evictions_total", s.Evictions},
		{"selfstabsnap_reconnects_total", s.Reconnects},
		{"selfstabsnap_write_failures_total", s.WriteFailures},
		{"selfstabsnap_invalid_types_total", s.InvalidTypes},
		{"selfstabsnap_invalid_objs_total", s.InvalidObjs},
		{"selfstabsnap_bad_frames_total", s.BadFrames},
		{"selfstabsnap_elided_bytes_total", s.ElidedBytes},
		{"selfstabsnap_gossip_full_total", s.GossipFull},
		{"selfstabsnap_gossip_full_bytes_total", s.GossipFullBytes},
		{"selfstabsnap_gossip_delta_total", s.GossipDelta},
		{"selfstabsnap_gossip_delta_bytes_total", s.GossipDeltaBytes},
		{"selfstabsnap_gossip_suppressed_total", s.GossipSuppressed},
	} {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", row.name, row.name, row.v)
	}
}
