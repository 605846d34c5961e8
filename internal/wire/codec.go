package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"selfstabsnap/internal/types"
)

// Codec errors.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrTooLarge  = errors.New("wire: collection too large")
	ErrBadType   = errors.New("wire: unknown message type")
	ErrBadObj    = errors.New("wire: negative object id")
	// ErrStaleRepeat rejects a repeat marker the Decoder cannot resolve: no
	// payload cached at its position, or a cache not yet refreshed since a
	// frame failed to decode.
	ErrStaleRepeat = errors.New("wire: repeat marker without a trusted cached payload")
)

// maxElems bounds every length-prefixed collection. Bounded decoding is part
// of the self-stabilization story: a corrupted length prefix must not make a
// node allocate unbounded memory.
const maxElems = 1 << 16

// repeatMarker takes the place of a register-vector payload's length field
// when an Encoder elides the payload (see Encoder). No frame can hold a
// payload that long, so the stateless Unmarshal rejects it as truncated.
const repeatMarker = math.MaxUint32

type encoder struct {
	b      []byte
	cache  *Encoder // nil for the stateless Marshal: every payload is literal
	elide  bool     // cache may stand in for repeated Reg payloads in this frame
	elided int      // payload bytes replaced by repeat markers so far
}

func (e *encoder) u8(v uint8)   { e.b = append(e.b, v) }
func (e *encoder) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) i32(v int32)  { e.u32(uint32(v)) }

func (e *encoder) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}

func (e *encoder) tsValue(v types.TSValue) {
	if types.MutcheckEnabled {
		// Marshal time is the last moment a payload is read before leaving
		// the node: verify its creation-time fingerprint still matches.
		types.AssertImmutable(v.Val)
	}
	e.i64(v.TS)
	e.bytes(v.Val)
}

// regVector encodes r; reg marks a Message.Reg, the only vector whose
// payloads an Encoder elides. Through an Encoder every non-empty payload is
// staged at its position, as the receiving Decoder will stage it.
func (e *encoder) regVector(r types.RegVector, reg bool) {
	e.u16(uint16(len(r)))
	for i, entry := range r {
		if e.cache != nil && len(entry.Val) > 0 {
			repeat := reg && e.elide && bytes.Equal(e.cache.get(i), entry.Val)
			e.cache.stage(i, entry.Val)
			if repeat {
				if types.MutcheckEnabled {
					types.AssertImmutable(entry.Val)
				}
				e.i64(entry.TS)
				e.u32(repeatMarker)
				e.elided += len(entry.Val)
				continue
			}
		}
		e.tsValue(entry)
	}
}

func (e *encoder) vectorClock(v types.VectorClock) {
	if v == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.u16(uint16(len(v)))
	for _, x := range v {
		e.i64(x)
	}
}

type decoder struct {
	b        []byte
	off      int
	err      error
	intern   *Decoder // nil for the stateless Unmarshal: every payload is a fresh buffer
	repeated bool     // a repeat marker was resolved in this frame
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || d.off+n > len(d.b) || n < 0 {
		d.fail()
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) u8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *decoder) u16() uint16 {
	s := d.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (d *decoder) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (d *decoder) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (d *decoder) i64() int64 { return int64(d.u64()) }
func (d *decoder) i32() int32 { return int32(d.u32()) }

// bytesVal decodes one length-prefixed payload. It never returns a slice of
// d.b: the caller may reuse the input buffer as soon as Unmarshal returns
// (the TCP transport decodes in place from its read window). slot is the
// payload's position for a Decoder's interning cache: its index within a
// register vector, or entrySlot. Only a Decoder resolves a repeat marker,
// and only where an Encoder may write one (reg: an entry of a Message.Reg);
// anywhere else the marker reads as a length no frame can hold.
func (d *decoder) bytesVal(slot int, reg bool) []byte {
	u := d.u32()
	if u == repeatMarker && reg && d.intern != nil {
		d.repeated = true
		return d.intern.repeat(d, slot)
	}
	n := int(u)
	if n == 0 {
		return nil
	}
	if n > len(d.b)-d.off {
		d.fail()
		return nil
	}
	s := d.take(n)
	if s == nil {
		return nil
	}
	if d.intern != nil {
		return d.intern.value(slot, s)
	}
	return copyPayload(s)
}

func copyPayload(s []byte) types.Value {
	out := make(types.Value, len(s))
	copy(out, s)
	if types.MutcheckEnabled {
		// A decoded payload is a fresh buffer entering the algorithm layer:
		// freeze it so any later in-place mutation is caught.
		types.Freeze(out)
	}
	return out
}

func (d *decoder) tsValue(slot int, reg bool) types.TSValue {
	return types.TSValue{TS: d.i64(), Val: d.bytesVal(slot, reg)}
}

// regVector decodes a register vector; reg marks a Message.Reg.
func (d *decoder) regVector(reg bool) types.RegVector {
	n := int(d.u16())
	if n == 0 {
		return nil
	}
	if n > maxElems {
		d.err = ErrTooLarge
		return nil
	}
	r := make(types.RegVector, n)
	for i := range r {
		r[i] = d.tsValue(i, reg)
	}
	return r
}

func (d *decoder) vectorClock() types.VectorClock {
	if d.u8() == 0 {
		return nil
	}
	n := int(d.u16())
	if n > maxElems {
		d.err = ErrTooLarge
		return nil
	}
	v := make(types.VectorClock, n)
	for i := range v {
		v[i] = d.i64()
	}
	return v
}

// Marshal encodes m into a fresh byte slice. The slice is preallocated to
// exactly Size() bytes, so a marshal costs one allocation regardless of
// payload shape.
func Marshal(m *Message) []byte {
	e := encoder{b: make([]byte, 0, m.Size())}
	marshalInto(&e, m)
	return e.b
}

func marshalInto(e *encoder, m *Message) {
	e.u8(uint8(m.Type))
	e.i32(m.From)
	e.i32(m.To)
	e.i32(m.Obj)
	e.u64(m.Seq)
	e.i64(m.SSN)
	e.i64(m.TS)
	e.i64(m.SNS)
	e.i32(m.Src)
	e.i64(m.TaskSN)
	e.regVector(m.Reg, true)
	e.tsValue(m.Entry)

	e.u16(uint16(len(m.Tasks)))
	for _, t := range m.Tasks {
		e.i32(t.Node)
		e.i64(t.SNS)
		e.vectorClock(t.VC)
	}

	e.u16(uint16(len(m.Saves)))
	for _, s := range m.Saves {
		e.i32(s.Node)
		e.i64(s.SNS)
		e.regVector(s.Result, false)
	}

	if m.Inner != nil {
		e.u8(1)
		marshalInto(e, m.Inner)
	} else {
		e.u8(0)
	}

	e.u64(m.Tag)
	e.i64(m.Epoch)
}

// Unmarshal decodes a message previously produced by Marshal. It returns an
// error on truncation, oversized collections, or an unknown message type —
// corrupted frames are rejected rather than propagated.
func Unmarshal(b []byte) (*Message, error) {
	d := decoder{b: b}
	return d.message()
}

// message decodes the whole of d.b as exactly one message.
func (d *decoder) message() (*Message, error) {
	m := unmarshalFrom(d, 0)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(d.b)-d.off)
	}
	return m, nil
}

func unmarshalFrom(d *decoder, depth int) *Message {
	if depth > 2 {
		d.err = errors.New("wire: nesting too deep")
		return nil
	}
	var m Message
	m.Type = Type(d.u8())
	if d.err == nil && !m.Type.Valid() {
		d.err = ErrBadType
		return nil
	}
	m.From = d.i32()
	m.To = d.i32()
	m.Obj = d.i32()
	if d.err == nil && m.Obj < 0 {
		// A negative object id can only be a fault: nothing legitimate
		// produces one. The positive out-of-range case is the dispatcher's
		// to judge — the codec does not know the object-table size.
		d.err = ErrBadObj
		return nil
	}
	m.Seq = d.u64()
	m.SSN = d.i64()
	m.TS = d.i64()
	m.SNS = d.i64()
	m.Src = d.i32()
	m.TaskSN = d.i64()
	m.Reg = d.regVector(true)
	m.Entry = d.tsValue(entrySlot, false)

	nt := int(d.u16())
	if nt > maxElems {
		d.err = ErrTooLarge
		return nil
	}
	if nt > 0 {
		m.Tasks = make([]TaskInfo, nt)
		for i := range m.Tasks {
			m.Tasks[i] = TaskInfo{Node: d.i32(), SNS: d.i64(), VC: d.vectorClock()}
		}
	}

	ns := int(d.u16())
	if ns > maxElems {
		d.err = ErrTooLarge
		return nil
	}
	if ns > 0 {
		m.Saves = make([]SaveEntry, ns)
		for i := range m.Saves {
			m.Saves[i] = SaveEntry{Node: d.i32(), SNS: d.i64(), Result: d.regVector(false)}
		}
	}

	if d.u8() == 1 {
		m.Inner = unmarshalFrom(d, depth+1)
	}

	m.Tag = d.u64()
	m.Epoch = d.i64()

	if d.err != nil {
		return nil
	}
	return &m
}

// sanity check that int64 casts through uint64 round-trip on this platform.
var _ = [1]struct{}{}[uint64(math.MaxUint64)>>63-1]
