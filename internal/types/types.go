// Package types defines the core value model shared by every snapshot
// algorithm in this repository: timestamped register values, register
// vectors (one entry per node), vector clocks, and the partial order ⪯
// from line 1 of the paper's Algorithm 1 together with its merge (join)
// operator.
//
// The model follows the paper exactly: each node p_i owns one
// single-writer/multi-reader register; a register state is a pair (v, ts)
// where v is an opaque payload of ν bits and ts is the write-operation
// index; a register vector reg holds one such pair per node; vectors are
// ordered entrywise by ts, and merging two vectors takes the entrywise
// maximum.
package types

import (
	"bytes"
	"fmt"
	"strings"
)

// Value is an opaque register payload. The paper calls its size ν bits; the
// codec in package wire accounts message sizes using len(Value).
//
// A nil Value together with Timestamp 0 represents ⊥ — "smaller than any
// other written value".
//
// Values are immutable by contract: once a payload enters the algorithm
// layer (a write installs it, the codec decodes it), its bytes are never
// modified in place. State evolves by replacing whole TSValue entries, not
// by editing payloads. This is what makes the zero-copy hot path sound:
// shared-structure snapshots (RegVector.Share), reference-adopting merges
// (RegVector.MergeFrom), and the transports' copy-on-write fan-out all
// alias the same payload bytes across goroutines without copying them.
// Build with `-tags mutcheck` to enforce the contract: Freeze fingerprints
// a payload at creation and AssertImmutable (wired into Share, MergeFrom
// and the wire codec) panics if any frozen payload changed.
type Value []byte

// Clone returns an independent copy of v.
func (v Value) Clone() Value {
	if v == nil {
		return nil
	}
	c := make(Value, len(v))
	copy(c, v)
	return c
}

// Equal reports whether two values hold identical bytes (nil == empty).
func (v Value) Equal(o Value) bool { return bytes.Equal(v, o) }

// TSValue is a register state: a payload and the index of the write that
// produced it. The zero TSValue is ⊥.
type TSValue struct {
	TS  int64 // write-operation index; 0 means ⊥ (never written)
	Val Value
}

// Bottom is the ⊥ register state: smaller than any written value.
var Bottom = TSValue{}

// IsBottom reports whether t is the never-written state.
func (t TSValue) IsBottom() bool { return t.TS == 0 && len(t.Val) == 0 }

// Less reports t ≺ o under the paper's order: comparison on the write index
// alone, with an equal-index tie broken lexicographically on the payload so
// that merge is deterministic even after transient faults corrupt payloads.
func (t TSValue) Less(o TSValue) bool {
	if t.TS != o.TS {
		return t.TS < o.TS
	}
	return bytes.Compare(t.Val, o.Val) < 0
}

// LessEq reports t ⪯ o.
func (t TSValue) LessEq(o TSValue) bool { return !o.Less(t) }

// Equal reports ts and payload equality.
func (t TSValue) Equal(o TSValue) bool { return t.TS == o.TS && t.Val.Equal(o.Val) }

// Max returns the larger of t and o under Less. The result shares the
// winner's payload (immutable by contract), not a copy of it.
func (t TSValue) Max(o TSValue) TSValue {
	if t.Less(o) {
		return o
	}
	return t
}

// Clone returns an independent copy of t.
func (t TSValue) Clone() TSValue { return TSValue{TS: t.TS, Val: t.Val.Clone()} }

// String renders (v, ts) compactly for traces and tests.
func (t TSValue) String() string {
	if t.IsBottom() {
		return "⊥"
	}
	return fmt.Sprintf("(%q,%d)", string(t.Val), t.TS)
}

// RegVector is the array reg of Algorithm 1: entry k is the most recent
// information about node p_k's register. Its length is always the cluster
// size n.
type RegVector []TSValue

// NewRegVector returns an all-⊥ vector for an n-node cluster.
func NewRegVector(n int) RegVector { return make(RegVector, n) }

// Clone returns a deep copy of r: fresh entries AND fresh payload buffers.
// Hot paths should prefer Share; Clone remains for the few places that must
// break payload sharing by design (Corrupt's in-place fault injection,
// codec round-trip tests, external callers that want to mutate).
func (r RegVector) Clone() RegVector {
	if r == nil {
		return nil
	}
	c := make(RegVector, len(r))
	for i, e := range r {
		c[i] = e.Clone()
	}
	return c
}

// Share returns a shallow snapshot of r: a fresh entry array whose TSValue
// entries are copied by value, so the payload slices are shared rather than
// copied — O(n) work regardless of payload size ν, versus Clone's O(n·ν).
//
// The snapshot is insulated from every subsequent *entry replacement* in r
// (writes, MergeFrom, Corrupt, InstallReset all replace whole entries), and
// it is safe to publish to other goroutines because payload bytes are never
// mutated after creation — the Value immutability contract. Under
// `-tags mutcheck` each shared payload's fingerprint is verified here.
func (r RegVector) Share() RegVector {
	if r == nil {
		return nil
	}
	c := make(RegVector, len(r))
	copy(c, r)
	if MutcheckEnabled {
		for _, e := range c {
			AssertImmutable(e.Val)
		}
	}
	return c
}

// LessEq reports r ⪯ o: entrywise ⪯ (line 1 of Algorithm 1). Vectors of
// different lengths are incomparable and LessEq returns false.
func (r RegVector) LessEq(o RegVector) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].LessEq(o[i]) {
			return false
		}
	}
	return true
}

// Equal reports entrywise equality.
func (r RegVector) Equal(o RegVector) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Less reports r ≺ o (⪯ and not equal).
func (r RegVector) Less(o RegVector) bool { return r.LessEq(o) && !r.Equal(o) }

// MergeFrom joins o into r in place: reg[k] ← max(reg[k], o[k]) for every k.
// Winning entries are adopted by reference — the payload slice is shared,
// not copied, which is safe because payloads are immutable after creation.
// Vectors of mismatched length (possible only after a transient fault
// corrupted a message) are merged over the common prefix.
func (r RegVector) MergeFrom(o RegVector) {
	m := len(r)
	if len(o) < m {
		m = len(o)
	}
	for i := 0; i < m; i++ {
		if r[i].Less(o[i]) {
			if MutcheckEnabled {
				AssertImmutable(o[i].Val)
			}
			r[i] = o[i]
		}
	}
}

// Merged returns the join of r and o as a fresh vector.
func (r RegVector) Merged(o RegVector) RegVector {
	c := r.Clone()
	c.MergeFrom(o)
	return c
}

// MaxTS returns the largest write index appearing in r.
func (r RegVector) MaxTS() int64 {
	var m int64
	for _, e := range r {
		if e.TS > m {
			m = e.TS
		}
	}
	return m
}

// VC returns the vector-clock projection of r: just the write indices
// (macro VC of Algorithm 3, line 69).
func (r RegVector) VC() VectorClock {
	vc := make(VectorClock, len(r))
	for i, e := range r {
		vc[i] = e.TS
	}
	return vc
}

// String renders the vector for traces and tests.
func (r RegVector) String() string {
	parts := make([]string, len(r))
	for i, e := range r {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// VectorClock is the timestamp projection of a RegVector: VC[k] is the write
// index of node k's register as locally known. A nil VectorClock represents
// ⊥ in pndTsk[k].vc.
type VectorClock []int64

// Clone returns an independent copy of v (nil stays nil).
func (v VectorClock) Clone() VectorClock {
	if v == nil {
		return nil
	}
	c := make(VectorClock, len(v))
	copy(c, v)
	return c
}

// LessEq reports entrywise v ⪯ o. Mismatched lengths are incomparable.
func (v VectorClock) LessEq(o VectorClock) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] > o[i] {
			return false
		}
	}
	return true
}

// Equal reports entrywise equality.
func (v VectorClock) Equal(o VectorClock) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// DiffSum returns Σ_ℓ (o[ℓ] − v[ℓ]), the number of write operations observed
// between the two clock samples (line 70 / line 94 of Algorithm 3). Negative
// per-entry differences (possible only transiently after corruption) are
// clamped to zero so a corrupted sample cannot mask concurrency.
func (v VectorClock) DiffSum(o VectorClock) int64 {
	var s int64
	n := len(v)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if d := o[i] - v[i]; d > 0 {
			s += d
		}
	}
	return s
}

// String renders the clock compactly.
func (v VectorClock) String() string {
	if v == nil {
		return "⊥"
	}
	parts := make([]string, len(v))
	for i, e := range v {
		parts[i] = fmt.Sprintf("%d", e)
	}
	return "⟨" + strings.Join(parts, ",") + "⟩"
}
