package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"selfstabsnap/internal/types"
)

// sameBuffer reports whether two non-empty payloads are one buffer.
func sameBuffer(a, b types.Value) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

func mustDecode(t *testing.T, d *Decoder, m *Message) *Message {
	t.Helper()
	got, err := d.Unmarshal(Marshal(m))
	if err != nil {
		t.Fatalf("%s: %v", m.Type, err)
	}
	if !reflect.DeepEqual(got, mustUnmarshal(t, m)) {
		t.Fatalf("%s: Decoder and Unmarshal disagree:\n  %+v\n  %+v", m.Type, got, mustUnmarshal(t, m))
	}
	return got
}

func mustUnmarshal(t *testing.T, m *Message) *Message {
	t.Helper()
	got, err := Unmarshal(Marshal(m))
	if err != nil {
		t.Fatalf("%s: %v", m.Type, err)
	}
	return got
}

// TestDecoderSharesOnByteEqualityOnly pins the interning rule: a payload is
// shared with the previous message's payload at the same position exactly
// when the bytes are equal. Timestamps decide nothing — a transient fault
// can leave two different values under one write index.
func TestDecoderSharesOnByteEqualityOnly(t *testing.T) {
	var d Decoder
	first := mustDecode(t, &d, &Message{Type: TWrite, Reg: types.RegVector{
		{TS: 1, Val: types.Value("alpha")}, {TS: 1, Val: types.Value("bravo")}, {TS: 1, Val: types.Value("carol")}}})

	second := mustDecode(t, &d, &Message{Type: TWriteAck, Reg: types.RegVector{
		{TS: 1, Val: types.Value("ALPHA")}, // same TS, same length, different bytes
		{TS: 9, Val: types.Value("bravo")}, // different TS, same bytes
		{TS: 1, Val: types.Value("alpha")}, // bytes of another position
	}})
	if sameBuffer(first.Reg[0].Val, second.Reg[0].Val) {
		t.Error("same TS but different bytes: payload shared")
	}
	if !sameBuffer(first.Reg[1].Val, second.Reg[1].Val) {
		t.Error("different TS but same bytes: payload not shared")
	}
	if sameBuffer(first.Reg[0].Val, second.Reg[2].Val) {
		t.Error("payload shared across positions")
	}
	if string(first.Reg[0].Val) != "alpha" {
		t.Errorf("earlier message changed by a later decode: %q", first.Reg[0].Val)
	}

	// Saves results sit at vector positions too, and Entry has a slot of its
	// own, independent of the vectors.
	third := mustDecode(t, &d, &Message{Type: TSave,
		Entry: types.TSValue{TS: 3, Val: types.Value("entry")},
		Saves: []SaveEntry{{Node: 1, SNS: 2, Result: types.RegVector{{TS: 4, Val: types.Value("ALPHA")}, {}}}}})
	if !sameBuffer(second.Reg[0].Val, third.Saves[0].Result[0].Val) {
		t.Error("Saves result with the previous Reg's bytes not shared")
	}
	fourth := mustDecode(t, &d, &Message{Type: TGossip, Entry: types.TSValue{TS: 8, Val: types.Value("entry")}})
	if !sameBuffer(third.Entry.Val, fourth.Entry.Val) {
		t.Error("repeated Entry not shared")
	}
}

// TestDecoderCacheSurvivesPayloadFreeAndBadFrames: gossip acks and corrupted
// frames arrive between the vector-carrying messages of a connection; they
// must not cost the next vector its sharing.
func TestDecoderCacheSurvivesPayloadFreeAndBadFrames(t *testing.T) {
	var d Decoder
	reg := types.RegVector{{TS: 1, Val: types.Value("alpha")}, {TS: 2, Val: types.Value("bravo")}}
	first := mustDecode(t, &d, &Message{Type: TWrite, Reg: reg})
	mustDecode(t, &d, &Message{Type: TGossipAck, TS: 3})

	bad := Marshal(&Message{Type: TWrite, Reg: types.RegVector{{TS: 5, Val: types.Value("zulu")}}})
	if _, err := d.Unmarshal(bad[:len(bad)-1]); err == nil {
		t.Fatal("truncated frame decoded")
	}
	if len(d.cur) != 0 {
		t.Errorf("failed frame left %d payloads staged", len(d.cur))
	}

	again := mustDecode(t, &d, &Message{Type: TWriteAck, Reg: reg})
	for k := range reg {
		if !sameBuffer(first.Reg[k].Val, again.Reg[k].Val) {
			t.Errorf("entry %d not shared after a payload-free and a corrupted frame", k)
		}
	}
}

// TestDecoderCacheBoundedByInput: the cache holds the payloads of one
// message, and a length prefix alone cannot grow it.
func TestDecoderCacheBoundedByInput(t *testing.T) {
	var d Decoder
	long := make(types.RegVector, 40)
	for k := range long {
		long[k] = types.TSValue{TS: int64(k), Val: types.Value(fmt.Sprintf("value-%d", k))}
	}
	mustDecode(t, &d, &Message{Type: TWrite, Reg: long})
	mustDecode(t, &d, &Message{Type: TWrite, Reg: long[:2]})
	if len(d.prev) != 2 {
		t.Errorf("cache holds %d payloads after a 2-entry message, want 2", len(d.prev))
	}

	// A vector that claims 65535 entries and delivers one.
	lie := Marshal(&Message{Type: TWrite, Reg: long[:1]})
	binary.LittleEndian.PutUint16(lie[fixedHeaderSize:], 0xFFFF)
	if _, err := d.Unmarshal(lie); err == nil {
		t.Fatal("lying vector length decoded")
	}
	if n := cap(d.cur) + cap(d.prev); n > 2*len(long) {
		t.Errorf("cache capacity %d grew from a length prefix", n)
	}
}

// TestDecodedMessageDoesNotAliasInput is the property the TCP transport's
// in-place decode relies on: once Unmarshal has returned, the input buffer
// may be overwritten. Checked for both decoders on every sample message.
func TestDecodedMessageDoesNotAliasInput(t *testing.T) {
	var d Decoder
	for _, m := range sampleMessages() {
		m.From, m.To, m.Seq = 1, 2, 99
		want := mustUnmarshal(t, m)
		for name, decode := range map[string]func([]byte) (*Message, error){"Unmarshal": Unmarshal, "Decoder": d.Unmarshal} {
			buf := Marshal(m)
			got, err := decode(buf)
			if err != nil {
				t.Fatalf("%s %s: %v", name, m.Type, err)
			}
			for i := range buf {
				buf[i] ^= 0xA5
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: message changed when the input buffer was overwritten:\n  %+v\n  %+v", name, m.Type, got, want)
			}
		}
	}
}

// streamSeed frames msgs the way FuzzDecoderStream reads them: a u16 length
// before each frame.
func streamSeed(frames ...[]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(f)))
		out = append(out, f...)
	}
	return out
}

// FuzzDecoderStream: over any sequence of frames — good ones, ones with
// repeat markers, and ones that fail to decode in the middle — a Decoder
// returns for a frame without a marker exactly what the stateless Unmarshal
// returns, whatever it has cached from the frames before. For a frame with
// markers it returns what Unmarshal returns for the frame with each marker
// replaced by the payload cached at its position, or fails with
// ErrStaleRepeat if some marker has no such payload or the cache is
// distrusted since a failed frame. What it returned earlier stays as it
// was.
func FuzzDecoderStream(f *testing.F) {
	// Seeds stay short — the fuzzer minimizes every input that reaches new
	// code, and that takes time in proportion to its length: each sample
	// message repeated around its neighbour, and one stream of near-repeats
	// with frames that fail in the middle.
	samples := sampleMessages()
	for i, m := range samples {
		next := samples[(i+1)%len(samples)]
		f.Add(streamSeed(Marshal(m), Marshal(next), Marshal(m)))
	}
	nu := bytes.Repeat([]byte("v"), 8)
	reg := types.RegVector{{TS: 1, Val: nu}, {TS: 2, Val: nu}, {TS: 3, Val: types.Value("w")}}
	a := Marshal(&Message{Type: TWrite, Reg: reg})
	reg2 := reg.Share()
	reg2[1] = types.TSValue{TS: 2, Val: bytes.Repeat([]byte("x"), 8)}
	b := Marshal(&Message{Type: TWriteAck, Reg: reg2})
	c := Marshal(&Message{Type: TSave, Entry: reg[2], Saves: []SaveEntry{{Node: 1, SNS: 1, Result: reg}, {Node: 2, SNS: 1, Result: reg2}}})
	f.Add(streamSeed(a, b, a[:len(a)/2], a, c, []byte{0xFF, 0xFF, 0xFF, 0xFF}, c, b, nil, a))
	f.Add([]byte{})
	// An Encoder's stream, with a failed frame after which its repeats are
	// distrusted until a marker-free vector frame.
	var enc Encoder
	e, _ := encodeAll(&enc, &Message{Type: TWrite, Reg: reg}, &Message{Type: TWriteAck, Reg: reg2},
		&Message{Type: TSnapshot, Reg: reg2}, &Message{Type: TWrite, Reg: reg})
	f.Add(streamSeed(e[0], e[1], e[2][:5], e[2], a, e[3]))

	f.Fuzz(func(t *testing.T, data []byte) {
		var d Decoder
		type decoded struct{ got, want *Message }
		var earlier []decoded
		for len(data) >= 2 {
			n := int(binary.LittleEndian.Uint16(data))
			data = data[2:]
			if n > len(data) {
				n = len(data)
			}
			frame := data[:n]
			data = data[n:]

			expanded, markers, untrusted := expandRepeats(frame, d.prev, !d.stale)
			want, wantErr := Unmarshal(expanded)
			scratch := bytes.Clone(frame)
			got, gotErr := d.Unmarshal(scratch)
			for i := range scratch {
				scratch[i] ^= 0xA5
			}
			if errors.Is(gotErr, ErrStaleRepeat) {
				if !untrusted || got != nil {
					t.Fatalf("ErrStaleRepeat on a frame with %d markers, all resolvable (message %+v)", markers, got)
				}
				continue
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("error differs: Decoder %v, Unmarshal %v", gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("message differs:\n  Decoder   %+v\n  Unmarshal %+v", got, want)
			}
			if got != nil {
				earlier = append(earlier, decoded{got, want})
			}
		}
		for _, e := range earlier {
			if !reflect.DeepEqual(e.got, e.want) {
				t.Fatalf("an earlier message changed while later frames were decoded:\n  %+v\n  %+v", e.got, e.want)
			}
		}
	})
}
