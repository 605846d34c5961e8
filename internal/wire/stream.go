package wire

import (
	"bytes"

	"selfstabsnap/internal/types"
)

// An Encoder and a Decoder are the two ends of one ordered stream of
// messages, such as one TCP connection. Both track the same cache: the
// payloads of the last vector-carrying message, one per register-vector
// position. The Encoder writes a Message.Reg payload that equals the one
// cached at its position as a 4-byte repeat marker in place of the payload
// — the length field set to 0xFFFFFFFF, which no frame can hold — and the
// Decoder puts its cached buffer there. Algorithm 1 ships the whole register
// vector in every message, and between two consecutive messages of one
// sender at most a few entries differ, so most payloads of most messages are
// elided.
//
// Only Message.Reg payloads (at any nesting depth) are elided. Entry and
// Saves[j].Result are always written whole, but a Saves result stages its
// payloads at its positions just as Reg does, so the two caches stay equal.
//
// A stream may start from arbitrary cache contents on either end (a
// transient fault, a connection that lost a frame). The cache after a frame
// that carries no repeat marker depends on that frame alone, so one such
// vector-carrying frame makes the two ends agree again; the Encoder writes
// every refreshEvery-th vector-carrying frame without any marker, which
// bounds the damage to the frames before it. A Decoder that failed to decode
// a frame rejects every marker (ErrStaleRepeat) until a vector-carrying frame
// without one has decoded, so it never builds a message from a cache the
// Encoder may not share.

// refreshEvery is the Encoder's refresh period: every refreshEvery-th
// vector-carrying frame is written with no repeat marker.
const refreshEvery = 8

// slotCache is the cache both ends of a stream track: prev[k] is the payload
// the last vector-carrying message held at position k of a register vector
// (Reg, each Saves[j].Result, and those of Inner; the last vector written
// wins a position), and cur collects the same for the message in progress.
// A message is vector-carrying when it stages at least one non-empty
// payload.
type slotCache struct {
	prev, cur []types.Value
}

// get returns the payload cached at slot, or nil.
func (c *slotCache) get(slot int) types.Value {
	if slot < len(c.prev) {
		return c.prev[slot]
	}
	return nil
}

// stage records v as the payload of the message in progress at slot.
func (c *slotCache) stage(slot int, v types.Value) {
	// slot counts the entries already written or decoded from this vector,
	// each of which consumed input, so the append is bounded by the frame.
	for len(c.cur) <= slot {
		c.cur = append(c.cur, nil)
	}
	c.cur[slot] = v
}

// end closes the message in progress. If ok and it was vector-carrying,
// its payloads become the cache and end reports true; otherwise the cache
// is left as it was.
func (c *slotCache) end(ok bool) bool {
	if !ok || len(c.cur) == 0 {
		clear(c.cur)
		c.cur = c.cur[:0]
		return false
	}
	clear(c.prev)
	c.prev, c.cur = c.cur, c.prev[:0]
	return true
}

// Encoder is Marshal for one ordered stream of messages whose receiving end
// decodes with a Decoder (see above). The zero value is ready to use and
// must be paired with a fresh Decoder — or with any Decoder, at the price of
// the frames before the first refresh. An Encoder must not be used from
// several goroutines at once. It keeps references to the payloads it
// encoded, which is sound because sent payloads are immutable (the
// types.Value contract).
type Encoder struct {
	slotCache
	// sinceFull counts the vector-carrying frames written since the last
	// one written without elision.
	sinceFull uint
}

// AppendMarshal appends m's encoding to b, eliding the Reg payloads the
// receiving Decoder holds, and returns the extended slice and the number of
// payload bytes elided: the encoding is m.Size() − elided bytes long, and
// it allocates nothing when b has that much spare capacity. The TCP
// transport appends each frame of a burst to one buffer this way.
func (c *Encoder) AppendMarshal(b []byte, m *Message) ([]byte, int) {
	e := encoder{b: b, cache: c, elide: c.sinceFull < refreshEvery-1}
	marshalInto(&e, m)
	if c.end(true) {
		if e.elide {
			c.sinceFull++
		} else {
			c.sinceFull = 0
		}
	}
	return e.b, e.elided
}

// Decoder is Unmarshal for one ordered stream of messages. On a frame with
// no repeat marker it decodes exactly what Unmarshal decodes — same
// messages, same errors — and it resolves the repeat markers an Encoder
// writes. It also interns register payloads: where a payload holds the very
// bytes the previous message held at the same position, the decoded TSValue
// shares the buffer decoded then instead of copying ν bytes again.
//
// Sharing is decided by comparing the bytes in full, never by timestamp or
// any other field a transient fault can set independently of the payload,
// and is sound because decoded payloads are immutable (the types.Value
// contract): two messages that share a buffer are indistinguishable from two
// that hold equal copies.
//
// The cache holds at most one frame's worth of payloads plus the single
// last Entry, and it grows only as payloads are actually decoded from the
// input, never from a length prefix. The zero value is ready to use. A
// Decoder must not be used from several goroutines at once.
type Decoder struct {
	slotCache
	entry types.Value // the last non-empty Entry payload
	// stale is set when a frame fails to decode and cleared by a
	// vector-carrying frame without a repeat marker: while it is set, the
	// cache still serves interning but resolves no marker.
	stale bool
}

// entrySlot is the cache position of Message.Entry, which is not part of a
// vector.
const entrySlot = -1

// Unmarshal decodes b like the package-level Unmarshal, resolving repeat
// markers from the cache. Like it, the returned message keeps no reference
// to b.
func (c *Decoder) Unmarshal(b []byte) (*Message, error) {
	d := decoder{b: b, intern: c}
	m, err := d.message()
	// A frame that failed to decode, or carried no vector payload (gossip,
	// bare acks), leaves the cache to the next one that does.
	if err != nil {
		c.stale = true
	}
	if c.end(err == nil) && !d.repeated {
		c.stale = false
	}
	return m, err
}

// repeat resolves a repeat marker at slot to the cached payload, or fails
// d with ErrStaleRepeat.
func (c *Decoder) repeat(d *decoder, slot int) types.Value {
	v := c.get(slot)
	if c.stale || v == nil {
		d.err = ErrStaleRepeat
		return nil
	}
	if types.MutcheckEnabled {
		types.AssertImmutable(v)
	}
	c.stage(slot, v)
	return v
}

// value returns the decoded form of the non-empty wire payload s at cache
// position slot: the buffer decoded there last time if it holds the same
// bytes, else a fresh copy.
func (c *Decoder) value(slot int, s []byte) types.Value {
	var v types.Value
	if slot == entrySlot {
		v = c.entry
	} else {
		v = c.get(slot)
	}
	if !bytes.Equal(v, s) {
		v = copyPayload(s)
	} else if types.MutcheckEnabled {
		types.AssertImmutable(v)
	}
	if slot == entrySlot {
		c.entry = v
	} else {
		c.stage(slot, v)
	}
	return v
}
