package wire

import (
	"selfstabsnap/internal/types"
)

// TaskInfo is one element of the task sets Algorithm 3 disseminates: the
// tuple (k, sns, vc) describing node p_k's pending snapshot task with index
// sns and (possibly ⊥) sampled vector clock vc.
type TaskInfo struct {
	Node int32
	SNS  int64
	VC   types.VectorClock // nil represents ⊥
}

// Clone returns a deep copy of t.
func (t TaskInfo) Clone() TaskInfo {
	return TaskInfo{Node: t.Node, SNS: t.SNS, VC: t.VC.Clone()}
}

// SaveEntry is one element of the result sets A carried by SAVE messages
// and of Algorithm 2's END payloads: node k's snapshot task s resolved to
// Result. In SAVEack messages only (Node, SNS) pairs are echoed and Result
// is nil.
type SaveEntry struct {
	Node   int32
	SNS    int64
	Result types.RegVector // nil in acknowledgment sets
}

// Clone returns a deep copy of s.
func (s SaveEntry) Clone() SaveEntry {
	return SaveEntry{Node: s.Node, SNS: s.SNS, Result: s.Result.Clone()}
}

// Message carries the union of every field used by any protocol in the
// repository. Unused fields are left at their zero values; the codec encodes
// all fields, so Size() is a small constant above the information-theoretic
// payload — irrelevant to the asymptotic claims being measured.
type Message struct {
	Type Type

	// From/To are node ids stamped by the transport layer. Seq is a
	// transport-level sequence number used for tracing and duplicate
	// diagnostics; protocols must not rely on it.
	From, To int32
	Seq      uint64

	// Obj identifies the snapshot object this message belongs to when a
	// runtime multiplexes several objects over one transport. Single-object
	// deployments leave it 0 (object 0), so the field is invisible to them.
	// Never negative on the wire: the codec rejects a negative id the same
	// way it rejects an unknown Type, and the dispatcher bounds-checks the
	// remaining range against its object table (a transient fault may
	// corrupt the id arbitrarily).
	Obj int32

	// Protocol indices.
	SSN int64 // snapshot query index (Algorithms 1–3)
	TS  int64 // gossiped write index where applicable
	SNS int64 // snapshot operation index (Algorithms 2–3)

	// Snapshot-task identification for Algorithm 2: (Src, TaskSN) is the
	// task (s, t) being served.
	Src    int32
	TaskSN int64

	// Register payloads.
	Reg   types.RegVector // full register vector (O(n·ν) bits)
	Entry types.TSValue   // single register entry (O(ν) bits): GOSSIP, UPDATE

	// Algorithm 3 sets.
	Tasks []TaskInfo  // S∩Δ in SNAPSHOT messages; pndTsk[k] in GOSSIP
	Saves []SaveEntry // A in SAVE / result sets; (k,s) echoes in SAVEack

	// Reliable-broadcast envelope (TRBCast wraps a TSnap or TEnd message).
	Inner *Message

	// Generic call tag used by the stacked baseline's collectors and by the
	// reliable-broadcast layer to match acks to transmissions.
	Tag uint64

	// Bounded-counter variation control plane.
	Epoch int64
}

// Clone returns a deep copy of m: fresh payload buffers everywhere. The
// hot path never calls it (transports deliver ShallowClones under the
// immutable-payload contract); it remains for callers that must break
// sharing by design — fault injection and tests that mutate a message.
func (m *Message) Clone() *Message {
	if m == nil {
		return nil
	}
	c := *m
	c.Reg = m.Reg.Clone()
	c.Entry = m.Entry.Clone()
	if m.Tasks != nil {
		c.Tasks = make([]TaskInfo, len(m.Tasks))
		for i, t := range m.Tasks {
			c.Tasks[i] = t.Clone()
		}
	}
	if m.Saves != nil {
		c.Saves = make([]SaveEntry, len(m.Saves))
		for i, s := range m.Saves {
			c.Saves[i] = s.Clone()
		}
	}
	c.Inner = m.Inner.Clone()
	return &c
}

// ShallowClone returns a copy of m that shares every payload slice (Reg,
// Entry.Val, Tasks, Saves, Inner) with the original. It is the
// backbone of the zero-copy hot path: transports use it for copy-on-write
// unicast and fan-out (each delivery gets its own From/To/Seq envelope
// while all share the sender's payload), and quorum calls use it to give
// each concurrent collector a private envelope over one arriving ack. Safe
// only because payloads are immutable once sent or received — the contract
// stated on netsim.Transport, enforced by the transport conformance suite
// under the race detector and by the `mutcheck` build tag.
func (m *Message) ShallowClone() *Message {
	c := *m
	return &c
}

// Encoded sizes of the codec's fixed-width pieces (see codec.go):
// a TSValue is an i64 timestamp plus a u32-length-prefixed payload, and the
// fixed header covers Type through TaskSN.
const (
	tsValueOverhead = 8 + 4
	fixedHeaderSize = 1 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 4 + 8 // Type..TaskSN (incl. Obj)
	fixedTailSize   = 8 + 8                                 // Tag, Epoch
)

func regVectorSize(r types.RegVector) int {
	n := 2 // u16 element count
	for _, e := range r {
		n += tsValueOverhead + len(e.Val)
	}
	return n
}

// Size returns the exact encoded size of m in bytes, computed without
// marshalling: len(Marshal(m)) == m.Size() always (a property the codec
// tests assert). The network layers meter traffic with this, so the
// paper's bit-complexity claims can be checked directly against measured
// byte counts, and Marshal uses it to preallocate exactly.
func (m *Message) Size() int {
	n := fixedHeaderSize + fixedTailSize
	n += regVectorSize(m.Reg)
	n += tsValueOverhead + len(m.Entry.Val)
	n += 2 // u16 task count
	for _, t := range m.Tasks {
		n += 4 + 8 + 1 // Node, SNS, vc presence flag
		if t.VC != nil {
			n += 2 + 8*len(t.VC)
		}
	}
	n += 2 // u16 save count
	for _, s := range m.Saves {
		n += 4 + 8 + regVectorSize(s.Result)
	}
	n++ // inner presence flag
	if m.Inner != nil {
		n += m.Inner.Size()
	}
	return n
}
