// Package metrics provides the lock-free counters that meter the quantities
// the paper's complexity claims are stated in — messages and bytes by
// message type — together with what the channels lost or refused (drops,
// duplicates, evictions, reconnects, write failures, invalid messages) and
// what gossip sent or suppressed, plus an operation-latency recorder.
// Retransmissions and do-forever loop iterations are not counted here: a
// retransmission is metered as one more send of its type, and loop counts
// live in node.Runtime.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"selfstabsnap/internal/obs"
	"selfstabsnap/internal/wire"
)

// Counters aggregates network-level counts. All methods are safe for
// concurrent use. The zero value is ready to use.
//
// Bytes are the messages' encoded sizes (wire.Message.Size), metered when a
// message is sent. On the TCP transport a frame's writer then subtracts the
// register payloads it elided as repeats of what the receiving decoder
// already holds (RecordElided), so there they count the bytes written to
// the socket; loopback deliveries, and frames lost before they were
// encoded, keep their full size.
type Counters struct {
	msgs         [64]atomic.Int64 // indexed by wire.Type
	bytes        [64]atomic.Int64
	drops        atomic.Int64
	dups         atomic.Int64
	evictions    atomic.Int64
	reconnects   atomic.Int64
	writeFails   atomic.Int64
	invalidTypes atomic.Int64
	invalidObjs  atomic.Int64
	resetRejects atomic.Int64
	badFrames    atomic.Int64
	elidedBytes  atomic.Int64

	// Gossip-mode accounting: how many GOSSIP sends were full-vector
	// fallbacks vs ack-dominance deltas, and how many ticks suppressed a
	// send entirely. Recorded by the algorithm layer at message-build time
	// with the same Size() the transport meters, so on a clean network
	// gossipFullBytes+gossipDeltaBytes reconciles exactly with the
	// transport's Bytes(TGossip).
	gossipFull       atomic.Int64
	gossipFullBytes  atomic.Int64
	gossipDelta      atomic.Int64
	gossipDeltaBytes atomic.Int64
	gossipSuppressed atomic.Int64
}

// inRange reports whether t indexes the fixed per-type arrays. A transient
// fault may corrupt a message's type beyond the known range; the meter must
// count that, not panic on it.
func (c *Counters) inRange(t wire.Type) bool { return int(t) < len(c.msgs) }

// RecordSend accounts one transmitted message of type t and size n bytes.
// An out-of-range type is counted under InvalidTypes instead.
func (c *Counters) RecordSend(t wire.Type, n int) {
	if !c.inRange(t) {
		c.invalidTypes.Add(1)
		return
	}
	c.msgs[t].Add(1)
	c.bytes[t].Add(int64(n))
}

// RecordSendMany accounts `count` transmitted messages of type t, each of
// size n bytes — exactly equivalent to count calls to RecordSend(t, n), but
// with two atomic adds instead of 2·count. The broadcast fast path uses it:
// marshal-once fan-out still meters one send per (from, to) pair.
func (c *Counters) RecordSendMany(t wire.Type, count, n int) {
	if count <= 0 {
		return
	}
	if !c.inRange(t) {
		c.invalidTypes.Add(int64(count))
		return
	}
	c.msgs[t].Add(int64(count))
	c.bytes[t].Add(int64(count) * int64(n))
}

// RecordElided accounts n payload bytes of one type-t message that were
// metered at send but not written, because the receiver already held
// them: it subtracts n from the type's bytes and adds it to ElidedBytes.
func (c *Counters) RecordElided(t wire.Type, n int) {
	if !c.inRange(t) {
		return
	}
	c.bytes[t].Add(-int64(n))
	c.elidedBytes.Add(int64(n))
}

// RecordBadFrame accounts one received frame that failed to decode and was
// skipped: corrupted, or a repeat of a payload the decoder no longer
// trusts.
func (c *Counters) RecordBadFrame() { c.badFrames.Add(1) }

// RecordDrop accounts one message lost by the adversary (or, on the TCP
// transport, by a failed write or unreachable peer).
func (c *Counters) RecordDrop() { c.drops.Add(1) }

// RecordDup accounts one message duplicated by the adversary.
func (c *Counters) RecordDup() { c.dups.Add(1) }

// RecordEviction accounts one message lost to bounded-inbox overflow
// (drop-oldest): the channel-capacity loss of the paper's §2 model.
func (c *Counters) RecordEviction() { c.evictions.Add(1) }

// RecordReconnect accounts one successful (re-)established peer connection
// on the TCP transport.
func (c *Counters) RecordReconnect() { c.reconnects.Add(1) }

// RecordWriteFailure accounts one frame that could not be written to an
// established connection (the message is also counted as a drop).
func (c *Counters) RecordWriteFailure() { c.writeFails.Add(1) }

// RecordInvalidType accounts one message whose type fell outside the known
// range — the footprint of a transient fault corrupting a type field.
func (c *Counters) RecordInvalidType() { c.invalidTypes.Add(1) }

// RecordInvalidObj accounts one message whose object id fell outside the
// node's object table — the multi-object analogue of RecordInvalidType: a
// transient fault may corrupt the id arbitrarily, and the dispatcher must
// drop (and meter) such a message rather than index past the table.
func (c *Counters) RecordInvalidObj() { c.invalidObjs.Add(1) }

// RecordGossipFull accounts one full-vector fallback gossip send of n bytes
// (no fresh ack from the peer: staleness, repair, or divergence).
func (c *Counters) RecordGossipFull(n int) {
	c.gossipFull.Add(1)
	c.gossipFullBytes.Add(int64(n))
}

// RecordGossipDelta accounts one delta gossip send of n bytes (the entry
// dominates what the peer last acked).
func (c *Counters) RecordGossipDelta(n int) {
	c.gossipDelta.Add(1)
	c.gossipDeltaBytes.Add(int64(n))
}

// RecordGossipSuppressed accounts one per-peer gossip send elided because
// the peer's fresh ack already dominates everything we would tell it.
func (c *Counters) RecordGossipSuppressed() { c.gossipSuppressed.Add(1) }

// GossipFull returns the number of full-vector fallback gossip sends.
func (c *Counters) GossipFull() int64 { return c.gossipFull.Load() }

// GossipDelta returns the number of delta gossip sends.
func (c *Counters) GossipDelta() int64 { return c.gossipDelta.Load() }

// GossipSuppressed returns the number of suppressed per-peer gossip sends.
func (c *Counters) GossipSuppressed() int64 { return c.gossipSuppressed.Load() }

// Messages returns the number of messages of type t sent so far; 0 for an
// out-of-range t.
func (c *Counters) Messages(t wire.Type) int64 {
	if !c.inRange(t) {
		return 0
	}
	return c.msgs[t].Load()
}

// Bytes returns the bytes of type-t messages sent so far; 0 for an
// out-of-range t.
func (c *Counters) Bytes(t wire.Type) int64 {
	if !c.inRange(t) {
		return 0
	}
	return c.bytes[t].Load()
}

// TotalMessages returns the number of messages of any type sent so far.
func (c *Counters) TotalMessages() int64 {
	var s int64
	for i := range c.msgs {
		s += c.msgs[i].Load()
	}
	return s
}

// TotalBytes returns bytes across all message types.
func (c *Counters) TotalBytes() int64 {
	var s int64
	for i := range c.bytes {
		s += c.bytes[i].Load()
	}
	return s
}

// Drops returns the number of adversarially dropped messages.
func (c *Counters) Drops() int64 { return c.drops.Load() }

// Dups returns the number of adversarially duplicated messages.
func (c *Counters) Dups() int64 { return c.dups.Load() }

// Evictions returns the number of messages lost to inbox overflow.
func (c *Counters) Evictions() int64 { return c.evictions.Load() }

// Reconnects returns the number of successful peer (re-)connections.
func (c *Counters) Reconnects() int64 { return c.reconnects.Load() }

// WriteFailures returns the number of failed frame writes.
func (c *Counters) WriteFailures() int64 { return c.writeFails.Load() }

// InvalidTypes returns the number of out-of-range message types seen.
func (c *Counters) InvalidTypes() int64 { return c.invalidTypes.Load() }

// InvalidObjs returns the number of out-of-range object ids seen.
func (c *Counters) InvalidObjs() int64 { return c.invalidObjs.Load() }

// BadFrames returns the number of received frames skipped undecoded.
func (c *Counters) BadFrames() int64 { return c.badFrames.Load() }

// ElidedBytes returns the payload bytes metered at send but elided on the
// wire.
func (c *Counters) ElidedBytes() int64 { return c.elidedBytes.Load() }

// RecordResetReject accounts one reset-plane or consensus message dropped
// by shape validation before any state transition — a hostile sender id,
// negative epoch, short register payload, or a type outside the reset
// plane. The bounded-counter wrapper records these so campaigns can assert
// that corrupted frames are metered rather than silently absorbed.
func (c *Counters) RecordResetReject() { c.resetRejects.Add(1) }

// ResetRejects returns the number of rejected reset-plane messages.
func (c *Counters) ResetRejects() int64 { return c.resetRejects.Load() }

// Snapshot captures the current counter values.
func (c *Counters) Snapshot() Snapshot {
	s := Snapshot{PerType: map[wire.Type]TypeCount{}}
	for i := range c.msgs {
		m, b := c.msgs[i].Load(), c.bytes[i].Load()
		if m == 0 && b == 0 {
			continue
		}
		s.PerType[wire.Type(i)] = TypeCount{Messages: m, Bytes: b}
		s.Messages += m
		s.Bytes += b
	}
	s.Drops = c.drops.Load()
	s.Dups = c.dups.Load()
	s.Evictions = c.evictions.Load()
	s.Reconnects = c.reconnects.Load()
	s.WriteFailures = c.writeFails.Load()
	s.InvalidTypes = c.invalidTypes.Load()
	s.InvalidObjs = c.invalidObjs.Load()
	s.ResetRejects = c.resetRejects.Load()
	s.BadFrames = c.badFrames.Load()
	s.ElidedBytes = c.elidedBytes.Load()
	s.GossipFull = c.gossipFull.Load()
	s.GossipFullBytes = c.gossipFullBytes.Load()
	s.GossipDelta = c.gossipDelta.Load()
	s.GossipDeltaBytes = c.gossipDeltaBytes.Load()
	s.GossipSuppressed = c.gossipSuppressed.Load()
	return s
}

// TypeCount is the per-message-type slice of a Snapshot.
type TypeCount struct {
	Messages int64
	Bytes    int64
}

// Snapshot is a point-in-time copy of all counters.
type Snapshot struct {
	PerType       map[wire.Type]TypeCount
	Messages      int64
	Bytes         int64
	Drops         int64
	Dups          int64
	Evictions     int64
	Reconnects    int64
	WriteFailures int64
	InvalidTypes  int64
	InvalidObjs   int64
	ResetRejects  int64
	BadFrames     int64
	ElidedBytes   int64

	// Gossip-mode breakdown of the TGossip sends above.
	GossipFull       int64
	GossipFullBytes  int64
	GossipDelta      int64
	GossipDeltaBytes int64
	GossipSuppressed int64
}

// Sub returns the difference s − o, the traffic between two snapshots.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	d := Snapshot{
		PerType:       map[wire.Type]TypeCount{},
		Messages:      s.Messages - o.Messages,
		Bytes:         s.Bytes - o.Bytes,
		Drops:         s.Drops - o.Drops,
		Dups:          s.Dups - o.Dups,
		Evictions:     s.Evictions - o.Evictions,
		Reconnects:    s.Reconnects - o.Reconnects,
		WriteFailures: s.WriteFailures - o.WriteFailures,
		InvalidTypes:  s.InvalidTypes - o.InvalidTypes,
		InvalidObjs:   s.InvalidObjs - o.InvalidObjs,
		ResetRejects:  s.ResetRejects - o.ResetRejects,
		BadFrames:     s.BadFrames - o.BadFrames,
		ElidedBytes:   s.ElidedBytes - o.ElidedBytes,

		GossipFull:       s.GossipFull - o.GossipFull,
		GossipFullBytes:  s.GossipFullBytes - o.GossipFullBytes,
		GossipDelta:      s.GossipDelta - o.GossipDelta,
		GossipDeltaBytes: s.GossipDeltaBytes - o.GossipDeltaBytes,
		GossipSuppressed: s.GossipSuppressed - o.GossipSuppressed,
	}
	for t, tc := range s.PerType {
		prev := o.PerType[t]
		diff := TypeCount{Messages: tc.Messages - prev.Messages, Bytes: tc.Bytes - prev.Bytes}
		if diff.Messages != 0 || diff.Bytes != 0 {
			d.PerType[t] = diff
		}
	}
	return d
}

// GossipDecisions is the number of per-peer gossip decisions (full, delta
// or suppressed): one per peer per full iteration, the paper's GOSSIP
// messages of Algorithm 1 line 11 and Algorithm 3 line 78.
func (s Snapshot) GossipDecisions() int64 { return s.GossipFull + s.GossipDelta + s.GossipSuppressed }

// MessagesOf sums the message counts of the given types.
func (s Snapshot) MessagesOf(tt ...wire.Type) int64 {
	var n int64
	for _, t := range tt {
		n += s.PerType[t].Messages
	}
	return n
}

// BytesOf sums the byte counts of the given types.
func (s Snapshot) BytesOf(tt ...wire.Type) int64 {
	var n int64
	for _, t := range tt {
		n += s.PerType[t].Bytes
	}
	return n
}

// String renders the snapshot as an aligned table sorted by message type.
func (s Snapshot) String() string {
	tt := make([]wire.Type, 0, len(s.PerType))
	for t := range s.PerType {
		tt = append(tt, t)
	}
	sort.Slice(tt, func(i, j int) bool { return tt[i] < tt[j] })
	var b strings.Builder
	for _, t := range tt {
		tc := s.PerType[t]
		fmt.Fprintf(&b, "%-14s msgs=%-8d bytes=%d\n", t, tc.Messages, tc.Bytes)
	}
	fmt.Fprintf(&b, "%-14s msgs=%-8d bytes=%d drops=%d dups=%d evictions=%d\n", "TOTAL", s.Messages, s.Bytes, s.Drops, s.Dups, s.Evictions)
	if s.Reconnects != 0 || s.WriteFailures != 0 || s.InvalidTypes != 0 || s.InvalidObjs != 0 || s.BadFrames != 0 || s.ElidedBytes != 0 {
		fmt.Fprintf(&b, "%-14s reconnects=%d write-failures=%d invalid-types=%d invalid-objs=%d bad-frames=%d elided-bytes=%d\n",
			"TRANSPORT", s.Reconnects, s.WriteFailures, s.InvalidTypes, s.InvalidObjs, s.BadFrames, s.ElidedBytes)
	}
	if s.GossipFull != 0 || s.GossipDelta != 0 || s.GossipSuppressed != 0 {
		fmt.Fprintf(&b, "%-14s full=%d (%dB) delta=%d (%dB) suppressed=%d\n", "GOSSIP-MODE",
			s.GossipFull, s.GossipFullBytes, s.GossipDelta, s.GossipDeltaBytes, s.GossipSuppressed)
	}
	return b.String()
}

// LatencyRecorder accumulates operation latencies in a fixed-size,
// lock-free log-bucketed histogram (obs.Histogram): O(1) memory no matter
// how many operations a run performs, where the previous implementation
// appended every sample to a slice and re-sorted it on each Stats call —
// O(total operations) memory, enough to OOM a long metered campaign.
// Count, Mean, Min and Max remain exact; P50/P90/P99 are interpolated
// within their bucket (~35% relative width, so within one bucket of the
// exact order statistic). Safe for concurrent use; the zero value is
// ready to use.
type LatencyRecorder struct {
	h obs.Histogram
}

// Record adds one latency sample. Lock-free: a handful of atomic adds.
func (l *LatencyRecorder) Record(d time.Duration) { l.h.Observe(d) }

// Histogram exposes the underlying histogram, e.g. for Prometheus export.
func (l *LatencyRecorder) Histogram() *obs.Histogram { return &l.h }

// Stats summarises the recorded samples without sorting anything: one
// pass over the 64 bucket counters.
func (l *LatencyRecorder) Stats() LatencyStats {
	s := l.h.Snapshot()
	st := LatencyStats{Count: int(s.Count)}
	if st.Count == 0 {
		return st
	}
	st.Mean = s.Mean()
	st.Min = s.Min
	st.Max = s.Max
	st.P50 = s.Quantile(50)
	st.P90 = s.Quantile(90)
	st.P99 = s.Quantile(99)
	st.P999 = s.QuantilePermille(999)
	return st
}

// LatencyStats summarises a latency distribution. Quantiles follow the
// historical sorted-slice indexing, value-at-rank ⌊n·q/100⌋ — which pins
// the small-n semantics: for n ≤ 100 that p99 rank is n-1, so P99 equals
// Max exactly (and for n = 1, P50 does too). Larger n interpolate within
// a histogram bucket.
type LatencyStats struct {
	Count               int
	Mean, Min, Max, P50 time.Duration
	P90                 time.Duration
	P99                 time.Duration
	// P999 is the p99.9 tail (rank ⌊n·999/1000⌋); for n ≤ 1000 it equals
	// Max exactly, by the same indexing convention as P99 at n ≤ 100.
	P999 time.Duration
}

// String renders the stats on one line.
func (s LatencyStats) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v p99.9=%v max=%v", s.Count, s.Mean, s.P50, s.P90, s.P99, s.P999, s.Max)
}
