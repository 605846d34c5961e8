// Package trace records message-level events of a run and renders them as
// an ASCII space-time diagram — the tool used to regenerate the paper's
// Figures 1, 2 and 3, which depict example executions (which messages flow
// for a write→snapshot→write workload under each algorithm).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

// EventKind distinguishes trace entries.
type EventKind uint8

// Trace event kinds.
const (
	EvSend EventKind = iota + 1
	EvDeliver
	EvMark // operation boundaries and annotations
)

// Event is one trace entry.
type Event struct {
	Kind     EventKind
	At       time.Time
	From, To int
	MsgType  wire.Type
	Seq      uint64
	Note     string
}

// Recorder implements netsim.TraceHook and accumulates events. By default
// it keeps every event; SetLimit bounds it to a ring buffer so a recorder
// left attached to a long chaos campaign cannot grow without bound.
type Recorder struct {
	clk     simclock.Clock
	mu      sync.Mutex
	events  []Event
	head    int                // ring start when limit > 0 and the buffer is full
	limit   int                // 0 = unbounded
	dropped uint64             // events overwritten since the last Reset
	filter  map[wire.Type]bool // nil = record everything
}

// NewRecorder returns an empty recorder stamping Marks with real time.
func NewRecorder() *Recorder { return NewRecorderClocked(nil) }

// NewRecorderClocked returns an empty recorder stamping Marks with clk
// (nil means the real clock). Send/Deliver events carry the transport
// clock timestamps either way.
func NewRecorderClocked(clk simclock.Clock) *Recorder {
	return &Recorder{clk: simclock.Or(clk)}
}

// SetFilter restricts recording to the given message types (nil resets to
// record-everything). Gossip traffic, for example, can be filtered out to
// match the paper's figures, which draw operations and gossip separately.
func (r *Recorder) SetFilter(tt ...wire.Type) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(tt) == 0 {
		r.filter = nil
		return
	}
	r.filter = make(map[wire.Type]bool, len(tt))
	for _, t := range tt {
		r.filter[t] = true
	}
}

// SetLimit bounds the recorder to the most recent n events (drop-oldest).
// n = 0 restores the default unbounded behaviour. If more than n events
// are already recorded, the oldest are discarded immediately and counted
// as dropped.
func (r *Recorder) SetLimit(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = r.linearized()
	r.head = 0
	r.limit = n
	if n > 0 && len(r.events) > n {
		r.dropped += uint64(len(r.events) - n)
		r.events = append([]Event(nil), r.events[len(r.events)-n:]...)
	}
}

// Dropped returns how many events the ring buffer has overwritten (or
// SetLimit discarded) since the last Reset.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// linearized returns the events in insertion order; the caller holds mu.
func (r *Recorder) linearized() []Event {
	if r.head == 0 {
		return r.events
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.head:]...)
	out = append(out, r.events[:r.head]...)
	return out
}

func (r *Recorder) record(e Event) {
	r.mu.Lock()
	if e.Kind != EvMark && r.filter != nil && !r.filter[e.MsgType] {
		r.mu.Unlock()
		return
	}
	if r.limit > 0 && len(r.events) >= r.limit {
		r.events[r.head] = e
		r.head = (r.head + 1) % r.limit
		r.dropped++
	} else {
		r.events = append(r.events, e)
	}
	r.mu.Unlock()
}

// OnSend implements netsim.TraceHook.
func (r *Recorder) OnSend(from, to int, m *wire.Message, at time.Time) {
	r.record(Event{Kind: EvSend, At: at, From: from, To: to, MsgType: m.Type, Seq: m.Seq})
}

// OnDeliver implements netsim.TraceHook.
func (r *Recorder) OnDeliver(from, to int, m *wire.Message, at time.Time) {
	r.record(Event{Kind: EvDeliver, At: at, From: from, To: to, MsgType: m.Type, Seq: m.Seq})
}

// Mark inserts an annotation (e.g. "p0 invokes write(v1)").
func (r *Recorder) Mark(node int, note string) {
	r.record(Event{Kind: EvMark, At: r.clk.Now(), From: node, To: node, Note: note})
}

// Events returns a time-sorted copy of the recorded events.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	lin := r.linearized()
	out := make([]Event, len(lin))
	copy(out, lin)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}

// Reset discards all recorded events and clears the dropped counter. The
// limit, if set, stays in force.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = nil
	r.head = 0
	r.dropped = 0
	r.mu.Unlock()
}

// CountByType tallies sends per message type — the quantitative summary a
// figure caption states ("each snapshot requires O(n²) messages").
func (r *Recorder) CountByType() map[wire.Type]int {
	out := make(map[wire.Type]int)
	for _, e := range r.Events() {
		if e.Kind == EvSend {
			out[e.MsgType]++
		}
	}
	return out
}

// Render draws the trace as an ASCII space-time diagram with one lane per
// node. Sends that fan out to every node in a burst are coalesced into a
// single broadcast line to keep the diagram readable, mirroring the paper's
// figures where one arrow bundle represents a broadcast.
func (r *Recorder) Render(n int) string {
	events := r.Events()
	dropped := r.Dropped()
	if len(events) == 0 {
		if dropped > 0 {
			return fmt.Sprintf("(empty trace; dropped %d older events)\n", dropped)
		}
		return "(empty trace)\n"
	}
	start := events[0].At
	var b strings.Builder
	if dropped > 0 {
		fmt.Fprintf(&b, "(dropped %d older events)\n", dropped)
	}
	fmt.Fprintf(&b, "%-10s %-6s %s\n", "t(µs)", "node", "event")

	i := 0
	for i < len(events) {
		e := events[i]
		ts := e.At.Sub(start).Microseconds()
		switch e.Kind {
		case EvMark:
			fmt.Fprintf(&b, "%-10d p%-5d ── %s\n", ts, e.From, e.Note)
			i++
		case EvSend:
			// Coalesce a broadcast: consecutive sends of the same type from
			// the same node within the burst.
			j := i
			tos := []int{}
			for j < len(events) && events[j].Kind == EvSend &&
				events[j].From == e.From && events[j].MsgType == e.MsgType &&
				events[j].At.Sub(e.At) < 200*time.Microsecond {
				tos = append(tos, events[j].To)
				j++
			}
			fmt.Fprintf(&b, "%-10d p%-5d %s → %s\n", ts, e.From, e.MsgType, nodeList(tos, n))
			i = j
		case EvDeliver:
			j := i
			froms := []int{}
			for j < len(events) && events[j].Kind == EvDeliver &&
				events[j].To == e.To && events[j].MsgType == e.MsgType &&
				events[j].At.Sub(e.At) < 200*time.Microsecond {
				froms = append(froms, events[j].From)
				j++
			}
			fmt.Fprintf(&b, "%-10d p%-5d %s ← %s\n", ts, e.To, e.MsgType, nodeList(froms, n))
			i = j
		default:
			i++
		}
	}
	return b.String()
}

// nodeList renders a peer set compactly: "all" when every one of the n
// nodes appears, "p0,p2" otherwise. Duplicates are removed BEFORE the
// all-nodes check — a duplicated-delivery burst like {p0,p1,p1} in a
// 3-node run must render "p0,p1", not a false "all" (the raw length
// equals n but only two distinct peers are present).
func nodeList(ids []int, n int) string {
	seen := map[int]bool{}
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			parts = append(parts, fmt.Sprintf("p%d", id))
		}
	}
	if len(parts) == n {
		return "all"
	}
	return strings.Join(parts, ",")
}
