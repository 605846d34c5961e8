package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"

	"selfstabsnap/internal/types"
)

// headerSize is the (writer id, seq) prefix every written value carries.
const headerSize = 4 + 8

// payloads makes and recognises written values. A value is
// (writer uint32, seq uint64) followed by filler cut from a block generated
// from the seed at an offset derived from (writer, seq), so every write has
// distinct bytes and the checker can verify all of them without storing
// any.
type payloads struct {
	size   int
	filler []byte // 2*size bytes
}

func newPayloads(seed int64, size int) *payloads {
	if size < headerSize+4 {
		size = headerSize + 4
	}
	p := &payloads{size: size, filler: make([]byte, 2*size)}
	rand.New(rand.NewSource(seed)).Read(p.filler)
	return p
}

func (p *payloads) offset(writer int, seq uint64) int {
	return int((seq*31 + uint64(writer)*7) % uint64(p.size))
}

func (p *payloads) value(writer int, seq uint64) types.Value {
	v := make(types.Value, p.size)
	off := p.offset(writer, seq)
	copy(v, p.filler[off:off+p.size])
	binary.LittleEndian.PutUint32(v, uint32(writer))
	binary.LittleEndian.PutUint64(v[4:], seq)
	return v
}

// decode returns the seq of a value found in register k, or an error when
// the value is not one that node k wrote.
func (p *payloads) decode(k int, v types.Value) (uint64, error) {
	if len(v) != p.size {
		return 0, fmt.Errorf("entry %d: value of %d bytes, want %d (truncated?)", k, len(v), p.size)
	}
	if w := int(binary.LittleEndian.Uint32(v)); w != k {
		return 0, fmt.Errorf("entry %d: value written by node %d", k, w)
	}
	seq := binary.LittleEndian.Uint64(v[4:])
	off := p.offset(k, seq)
	if !bytes.Equal(v[headerSize:], p.filler[off+headerSize:off+p.size]) {
		return 0, fmt.Errorf("entry %d: filler of seq %d does not match the seed", k, seq)
	}
	return seq, nil
}

type seqVector [clusterSize]uint64

// checker is the O(n) inline output check applied to every returned
// snapshot. issued[k] counts writes node k has invoked, completed[k] the
// ones that have returned; a snapshot invoked after floor = completed and
// returned before ceil = issued must show, for every k, a value node k
// wrote with floor[k] ≤ seq ≤ ceil[k] (⊥ only while floor[k] = 0).
type checker struct {
	pay       *payloads
	issued    [clusterSize]atomic.Uint64
	completed [clusterSize]atomic.Uint64
}

// beginWrite allocates node k's next seq and builds its value. Each node's
// writes are serial (one client per node), so seq order is invocation order.
func (c *checker) beginWrite(k int) (types.Value, uint64) {
	seq := c.issued[k].Add(1)
	return c.pay.value(k, seq), seq
}

func (c *checker) endWrite(k int, seq uint64) { c.completed[k].Store(seq) }

// floor is read before a snapshot is invoked.
func (c *checker) floor() (f seqVector) {
	for k := range f {
		f[k] = c.completed[k].Load()
	}
	return f
}

// check validates a snapshot returned to the client whose previous
// snapshot decoded to *prev (the same client's snapshots are ordered in
// real time, so the vector may never regress), and advances *prev.
func (c *checker) check(prev *seqVector, floor seqVector, snap types.RegVector) error {
	if len(snap) != clusterSize {
		return fmt.Errorf("snapshot has %d entries, want %d", len(snap), clusterSize)
	}
	var got seqVector
	for k, e := range snap {
		if !e.IsBottom() {
			seq, err := c.pay.decode(k, e.Val)
			if err != nil {
				return err
			}
			got[k] = seq
		}
		if ceil := c.issued[k].Load(); got[k] > ceil {
			return fmt.Errorf("entry %d: seq %d was never issued (issued %d)", k, got[k], ceil)
		}
		if got[k] < floor[k] {
			return fmt.Errorf("entry %d: stale seq %d, write %d completed before the snapshot was invoked", k, got[k], floor[k])
		}
		if got[k] < prev[k] {
			return fmt.Errorf("entry %d: seq %d regressed below %d returned earlier to this client", k, got[k], prev[k])
		}
	}
	*prev = got
	return nil
}
