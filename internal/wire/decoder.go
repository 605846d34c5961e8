package wire

import (
	"bytes"

	"selfstabsnap/internal/types"
)

// Decoder is Unmarshal for one ordered stream of messages, such as one
// inbound connection. It decodes exactly what Unmarshal decodes — same
// messages, same errors — but interns register payloads: where a payload
// holds the very bytes the previous message held at the same position, the
// decoded TSValue shares the buffer decoded then instead of copying ν bytes
// again. Algorithm 1 ships the whole register vector in every message, and
// between two consecutive messages of one sender at most a few entries
// differ, so most payloads of most messages repeat.
//
// Sharing is decided by comparing the bytes in full, never by timestamp or
// any other field a transient fault can set independently of the payload,
// and is sound because decoded payloads are immutable (the types.Value
// contract): two messages that share a buffer are indistinguishable from two
// that hold equal copies.
//
// The cache is the payloads of the last message that carried any — one per
// register-vector position plus the single Entry — so it holds at most one
// frame's worth of bytes, and it grows only as payloads are actually decoded
// from the input, never from a length prefix. The zero value is ready to
// use. A Decoder must not be used from several goroutines at once.
type Decoder struct {
	// prev[k] is the payload the last vector-carrying message held at
	// position k of a register vector (Reg, and each Saves[j].Result); cur
	// collects the same for the message being decoded.
	prev, cur []types.Value
	entry     types.Value // the last non-empty Entry payload
}

// entrySlot is the cache position of Message.Entry, which is not part of a
// vector.
const entrySlot = -1

// Unmarshal decodes b like the package-level Unmarshal. Like it, the
// returned message keeps no reference to b.
func (c *Decoder) Unmarshal(b []byte) (*Message, error) {
	d := decoder{b: b, intern: c}
	m, err := d.message()
	if err != nil || len(c.cur) == 0 {
		// A frame that failed to decode, or carried no vector payload
		// (gossip, bare acks), leaves the cache to the next one that does.
		clear(c.cur)
		c.cur = c.cur[:0]
		return m, err
	}
	clear(c.prev)
	c.prev, c.cur = c.cur, c.prev[:0]
	return m, nil
}

// value returns the decoded form of the non-empty wire payload s at cache
// position slot: the buffer decoded there last time if it holds the same
// bytes, else a fresh copy.
func (c *Decoder) value(slot int, s []byte) types.Value {
	var v types.Value
	if slot == entrySlot {
		v = c.entry
	} else if slot < len(c.prev) {
		v = c.prev[slot]
	}
	if !bytes.Equal(v, s) {
		v = copyPayload(s)
	} else if types.MutcheckEnabled {
		types.AssertImmutable(v)
	}
	if slot == entrySlot {
		c.entry = v
		return v
	}
	// slot counts the entries already decoded from this vector, each of
	// which consumed input, so the append is bounded by len(b).
	for len(c.cur) <= slot {
		c.cur = append(c.cur, nil)
	}
	c.cur[slot] = v
	return v
}
