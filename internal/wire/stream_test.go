package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"selfstabsnap/internal/types"
)

// encodeAll encodes msgs through one Encoder and returns each frame with
// the payload bytes it elided.
func encodeAll(enc *Encoder, msgs ...*Message) (frames [][]byte, elided []int) {
	for _, m := range msgs {
		f, n := enc.AppendMarshal(nil, m)
		frames, elided = append(frames, f), append(elided, n)
	}
	return frames, elided
}

// vec builds a register vector of the given payloads, timestamps 1, 2, ….
func vec(vals ...string) types.RegVector {
	r := make(types.RegVector, len(vals))
	for i, v := range vals {
		r[i] = types.TSValue{TS: int64(i + 1)}
		if v != "" {
			r[i].Val = types.Value(v)
		}
	}
	return r
}

// TestEncoderElidesRepeatedRegPayloads: a Reg payload equal to the one the
// previous vector-carrying frame held at its position costs a 4-byte marker
// instead of its bytes, and the Decoder rebuilds exactly the message.
func TestEncoderElidesRepeatedRegPayloads(t *testing.T) {
	msgs := []*Message{
		{Type: TWrite, Reg: vec("alpha", "bravo", "carol")},
		{Type: TGossipAck, TS: 3}, // payload-free: the cache waits for the next vector
		{Type: TWriteAck, Reg: vec("alpha", "BRAVO", "carol", "delta")},
		{Type: TSnapshot, SSN: 1, Reg: vec("alpha", "", "carol")},
	}
	var enc Encoder
	frames, elided := encodeAll(&enc, msgs...)
	if want := []int{0, 0, len("alpha") + len("carol"), len("alpha") + len("carol")}; !reflect.DeepEqual(elided, want) {
		t.Errorf("elided %v, want %v", elided, want)
	}
	var dec Decoder
	for i, m := range msgs {
		if len(frames[i]) != m.Size()-elided[i] {
			t.Errorf("frame %d: %d bytes, want Size %d less %d elided", i, len(frames[i]), m.Size(), elided[i])
		}
		got, err := dec.Unmarshal(frames[i])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if want := mustUnmarshal(t, m); !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d decoded\n  %+v\nwant\n  %+v", i, got, want)
		}
		if elided[i] > 0 {
			if _, err := Unmarshal(frames[i]); err == nil {
				t.Errorf("frame %d: the stateless Unmarshal accepted a repeat marker", i)
			}
		}
	}
}

// TestEncoderElidesRegOnly: Entry and Saves results are always written
// whole, but stage their positions exactly as the Decoder does — including
// inside Inner — so a later Reg repeat of a Saves payload is elided.
func TestEncoderElidesRegOnly(t *testing.T) {
	save := &Message{Type: TSave, Entry: types.TSValue{TS: 1, Val: types.Value("entry")},
		Saves: []SaveEntry{{Node: 1, SNS: 1, Result: vec("xx", "yy")}}}
	msgs := []*Message{
		save,
		save, // nothing to elide: no Reg
		{Type: TRBCast, Tag: 1, Inner: &Message{Type: TEnd, Saves: []SaveEntry{{Node: 2, Result: vec("xx", "zz")}}}},
		{Type: TWrite, Reg: vec("xx", "zz"), Entry: types.TSValue{TS: 1, Val: types.Value("entry")}},
		{Type: TRBCast, Tag: 2, Inner: &Message{Type: TEnd, Reg: vec("xx", "zz")}},
	}
	var enc Encoder
	frames, elided := encodeAll(&enc, msgs...)
	if want := []int{0, 0, 0, 4, 4}; !reflect.DeepEqual(elided, want) {
		t.Errorf("elided %v, want %v", elided, want)
	}
	var dec Decoder
	for i, m := range msgs {
		got, err := dec.Unmarshal(frames[i])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if want := mustUnmarshal(t, m); !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d decoded\n  %+v\nwant\n  %+v", i, got, want)
		}
	}
}

// TestEncoderRefreshesEveryEighthVectorFrame: every refreshEvery-th
// vector-carrying frame goes out whole, counting only frames that carry a
// vector payload.
func TestEncoderRefreshesEveryEighthVectorFrame(t *testing.T) {
	var enc Encoder
	m := &Message{Type: TWrite, Reg: vec("same", "same")}
	var full []int
	for i := 1; i <= 3*refreshEvery; i++ {
		if _, n := enc.AppendMarshal(nil, &Message{Type: TGossipAck, TS: int64(i)}); n != 0 {
			t.Fatalf("payload-free frame elided %d bytes", n)
		}
		if _, n := enc.AppendMarshal(nil, m); n == 0 {
			full = append(full, i)
		}
	}
	if want := []int{1, 8, 16, 24}; !reflect.DeepEqual(full, want) {
		t.Errorf("vector frames written whole: %v, want %v (the first: nothing cached yet)", full, want)
	}
}

// TestDecoderDistrustsCacheAfterBadFrame: after a frame fails to decode,
// every repeat marker fails until a vector-carrying frame without one has
// decoded; a payload-free frame does not restore trust.
func TestDecoderDistrustsCacheAfterBadFrame(t *testing.T) {
	var enc Encoder
	first := &Message{Type: TWrite, Reg: vec("alpha", "bravo")}
	repeat := &Message{Type: TWriteAck, Reg: vec("alpha", "bravo")}
	frames, _ := encodeAll(&enc, first, repeat, repeat)
	var dec Decoder
	if _, err := dec.Unmarshal(frames[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Unmarshal(frames[0][:10]); err == nil {
		t.Fatal("truncated frame decoded")
	}
	if _, err := dec.Unmarshal(frames[1]); !errors.Is(err, ErrStaleRepeat) {
		t.Fatalf("repeat after a bad frame: %v, want ErrStaleRepeat", err)
	}
	if _, err := dec.Unmarshal(Marshal(&Message{Type: TGossipAck})); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Unmarshal(frames[2]); !errors.Is(err, ErrStaleRepeat) {
		t.Fatalf("repeat after a payload-free frame: %v, want ErrStaleRepeat", err)
	}
	// A marker-free vector frame restores trust; its own payloads are the
	// cache from then on.
	if _, err := dec.Unmarshal(Marshal(&Message{Type: TWrite, Reg: vec("alpha", "bravo")})); err != nil {
		t.Fatal(err)
	}
	got, err := dec.Unmarshal(frames[2])
	if err != nil || !reflect.DeepEqual(got, mustUnmarshal(t, repeat)) {
		t.Fatalf("repeat after a marker-free vector frame: %+v, %v", got, err)
	}

	// A fresh Decoder has nothing to resolve a marker with.
	var fresh Decoder
	if _, err := fresh.Unmarshal(frames[1]); !errors.Is(err, ErrStaleRepeat) {
		t.Fatalf("repeat on a fresh Decoder: %v, want ErrStaleRepeat", err)
	}
}

// TestEncodedSizeOfWriteSequence pins what the repeat markers save on the
// shape of Algorithm 1's traffic: n = 5 registers of ν = 1024 bytes, 16
// frames in which one register changes per frame. README quotes these
// sizes.
func TestEncodedSizeOfWriteSequence(t *testing.T) {
	const n, nu, frames = 5, 1024, 16
	reg := make(types.RegVector, n)
	for k := range reg {
		reg[k] = types.TSValue{TS: 1, Val: bytes.Repeat([]byte{byte('a' + k)}, nu)}
	}
	var enc Encoder
	full, encoded := 0, 0
	for i := 0; i < frames; i++ {
		reg = reg.Share()
		k := i % n
		reg[k] = types.TSValue{TS: reg[k].TS + 1, Val: bytes.Repeat([]byte{byte('A' + i)}, nu)}
		m := &Message{Type: TWriteAck, SSN: int64(i), Reg: reg}
		f, _ := enc.AppendMarshal(nil, m)
		full += m.Size()
		encoded += len(f)
	}
	if full != 84_352 || encoded != 31_104 {
		t.Errorf("16 frames: %d bytes marshalled, %d encoded; README quotes 84 352 and 31 104", full, encoded)
	}
}

// fuzzSource draws values from fuzz input, zeros once it is used up.
type fuzzSource struct{ b []byte }

func (s *fuzzSource) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return v
}

// fuzzPayloads is a small alphabet, so that repeats, equal-length near
// repeats and empty entries are all common.
var fuzzPayloads = []types.Value{nil, types.Value("a"), types.Value("b"), types.Value("ab"), types.Value("ba"), types.Value("abc")}

func (s *fuzzSource) payload() types.Value { return fuzzPayloads[int(s.next())%len(fuzzPayloads)] }

func (s *fuzzSource) vector() types.RegVector {
	r := make(types.RegVector, s.next()%5)
	for i := range r {
		r[i] = types.TSValue{TS: int64(s.next() % 4), Val: s.payload()}
	}
	return r
}

// message draws a valid message: every field an Encoder treats apart (Reg,
// Entry, Saves results, Inner) is drawn from the input.
func (s *fuzzSource) message(depth int) *Message {
	m := &Message{Type: Type(1 + int(s.next())%int(numTypes-1))}
	flags := s.next()
	m.SSN = int64(flags >> 4)
	m.Reg = s.vector()
	if flags&1 != 0 {
		m.Entry = types.TSValue{TS: 1, Val: s.payload()}
	}
	if flags&2 != 0 {
		m.Saves = []SaveEntry{{Node: 1, SNS: 2, Result: s.vector()}}
	}
	if flags&4 != 0 && depth < 2 {
		m.Inner = s.message(depth + 1)
	}
	return m
}

// cache draws arbitrary cache contents.
func (s *fuzzSource) cache() slotCache {
	prev := make([]types.Value, s.next()%6)
	for i := range prev {
		prev[i] = s.payload()
	}
	return slotCache{prev: prev}
}

// carriesVector reports whether m stages a payload: a non-empty payload in
// any register vector, Inner's included.
func carriesVector(m *Message) bool {
	if m == nil {
		return false
	}
	has := func(r types.RegVector) bool {
		for _, e := range r {
			if len(e.Val) > 0 {
				return true
			}
		}
		return false
	}
	if has(m.Reg) {
		return true
	}
	for _, s := range m.Saves {
		if has(s.Result) {
			return true
		}
	}
	return carriesVector(m.Inner)
}

// FuzzCodecStream sends arbitrary message sequences through one Encoder and
// one Decoder. From fresh codecs every message decodes to exactly the
// message encoded (what Unmarshal makes of its full encoding), each frame
// is Size() less the elided bytes long, and the stateless Unmarshal rejects
// every frame with a repeat marker. From arbitrary cache contents on both
// ends, refresh counter included, every message after the refreshEvery-th
// vector-carrying frame decodes exactly. No input panics.
func FuzzCodecStream(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{3, 1, 2, 3, 9, 4, 0, 3, 4, 1, 1}, bytes.Repeat([]byte{1, 0, 3, 1, 2, 3}, 12))
	f.Add([]byte{5, 5, 5, 5, 5, 5, 6, 1, 2, 3, 4, 5, 1, 3, 0}, bytes.Repeat([]byte{12, 7, 2, 5, 4, 1, 2, 3, 1, 1, 2, 3, 4}, 10))
	f.Fuzz(func(t *testing.T, state, stream []byte) {
		src := &fuzzSource{b: stream}
		var msgs []*Message
		for len(src.b) > 0 && len(msgs) < 64 {
			msgs = append(msgs, src.message(0))
		}
		want := make([]*Message, len(msgs))
		for i, m := range msgs {
			w, err := Unmarshal(Marshal(m))
			if err != nil {
				t.Fatalf("message %d does not round-trip: %v", i, err)
			}
			want[i] = w
		}

		var enc Encoder
		var dec Decoder
		for i, m := range msgs {
			frame, elided := enc.AppendMarshal(nil, m)
			if len(frame) != m.Size()-elided {
				t.Fatalf("message %d: %d bytes encoded, Size %d less %d elided", i, len(frame), m.Size(), elided)
			}
			if _, err := Unmarshal(frame); elided > 0 && err == nil {
				t.Fatalf("message %d: the stateless Unmarshal accepted a repeat marker", i)
			}
			got, err := dec.Unmarshal(frame)
			if err != nil || !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("message %d from fresh codecs: %v\n  got  %+v\n  want %+v", i, err, got, want[i])
			}
		}

		st := &fuzzSource{b: state}
		enc = Encoder{slotCache: st.cache(), sinceFull: uint(st.next())}
		dec = Decoder{slotCache: st.cache(), entry: st.payload(), stale: st.next()&1 == 1}
		vectors := 0
		for i, m := range msgs {
			frame, _ := enc.AppendMarshal(nil, m)
			got, err := dec.Unmarshal(frame)
			if vectors >= refreshEvery && (err != nil || !reflect.DeepEqual(got, want[i])) {
				t.Fatalf("message %d, after %d vector frames from arbitrary caches: %v\n  got  %+v\n  want %+v", i, vectors, err, got, want[i])
			}
			if carriesVector(m) {
				vectors++
			}
		}
	})
}

// frameWalker follows a frame the way the decoder reads it, copying it to
// out with every repeat marker in a Reg vector replaced by the payload
// cached at its position (length and bytes) when the cache is trusted and
// holds one there. Once the frame stops making sense, the walk stops and
// the rest is copied as it is.
type frameWalker struct {
	in, out   []byte
	cache     []types.Value
	trusted   bool
	markers   int  // repeat markers seen
	untrusted bool // some marker was left in place: nothing to resolve it with
	bad       bool
}

func (w *frameWalker) copy(n int) []byte {
	if w.bad || n < 0 || n > len(w.in) {
		w.bad = true
		return nil
	}
	s := w.in[:n]
	w.out, w.in = append(w.out, s...), w.in[n:]
	return s
}

func (w *frameWalker) u8() int {
	if s := w.copy(1); s != nil {
		return int(s[0])
	}
	return 0
}

func (w *frameWalker) u16() int {
	if s := w.copy(2); s != nil {
		return int(binary.LittleEndian.Uint16(s))
	}
	return 0
}

func (w *frameWalker) payload() {
	if s := w.copy(4); s != nil {
		w.copy(int(binary.LittleEndian.Uint32(s)))
	}
}

func (w *frameWalker) vector(reg bool) {
	n := w.u16()
	for i := 0; i < n && !w.bad; i++ {
		w.copy(8)
		if reg && !w.bad && len(w.in) >= 4 && binary.LittleEndian.Uint32(w.in) == repeatMarker {
			w.markers++
			if i < len(w.cache) && w.cache[i] != nil && w.trusted {
				w.in = w.in[4:]
				w.out = binary.LittleEndian.AppendUint32(w.out, uint32(len(w.cache[i])))
				w.out = append(w.out, w.cache[i]...)
				continue
			}
			w.untrusted = true
		}
		w.payload()
	}
}

func (w *frameWalker) message(depth int) {
	if depth > 2 {
		w.bad = true
		return
	}
	w.copy(fixedHeaderSize)
	w.vector(true)
	w.copy(8) // Entry
	w.payload()
	for i, n := 0, w.u16(); i < n && !w.bad; i++ {
		w.copy(4 + 8)
		if w.u8() != 0 {
			w.copy(8 * w.u16())
		}
	}
	for i, n := 0, w.u16(); i < n && !w.bad; i++ {
		w.copy(4 + 8)
		w.vector(false)
	}
	if w.u8() == 1 {
		w.message(depth + 1)
	}
	w.copy(fixedTailSize)
}

// expandRepeats returns frame with its repeat markers resolved against
// cache (see frameWalker), the number of markers and whether any was left
// unresolved.
func expandRepeats(frame []byte, cache []types.Value, trusted bool) (out []byte, markers int, untrusted bool) {
	w := frameWalker{in: frame, cache: cache, trusted: trusted}
	w.message(0)
	return append(w.out, w.in...), w.markers, w.untrusted
}

// TestExpandRepeatsInvertsElision checks FuzzDecoderStream's oracle against
// the Encoder: resolving an encoded frame's markers against the cache the
// Encoder held gives back Marshal's bytes exactly.
func TestExpandRepeatsInvertsElision(t *testing.T) {
	var enc Encoder
	total := 0
	msgs := append(sampleMessages(), sampleMessages()...)
	for i, m := range msgs {
		cache := append([]types.Value(nil), enc.prev...)
		frame, elided := enc.AppendMarshal(nil, m)
		total += elided
		out, markers, untrusted := expandRepeats(frame, cache, true)
		if !bytes.Equal(out, Marshal(m)) || untrusted || (markers > 0) != (elided > 0) {
			t.Fatalf("message %d (%s): expansion differs from Marshal (markers %d, untrusted %v, elided %d)", i, m.Type, markers, untrusted, elided)
		}
	}
	if total == 0 {
		t.Fatal("sample stream never elided")
	}
}
