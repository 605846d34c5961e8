// Package stacked implements the "stacking" approach the paper's
// introduction compares against: Afek et al.'s shared-memory double-collect
// snapshot layered on top of Attiya–Bar-Noy–Dolev (ABD) emulated registers.
//
// Delporte-Gallet et al. quantify this approach at roughly 8n messages and
// 4 round trips per snapshot operation, versus 2n messages and 1 round trip
// for their direct (non-stacked) construction. This package exists to
// reproduce that comparison (experiment E3):
//
//   - a write is one UPDATE round: broadcast the writer's new register
//     value, wait for a majority of acks — 2n messages, 1 round trip;
//   - a collect is an atomic read of the whole register array: a COLLECT
//     query round (2n messages, 1 RT) followed by a WRITEBACK round
//     installing the read vector at a majority (2n messages, 1 RT), the
//     write-back being what makes ABD reads atomic;
//   - a snapshot is a double collect repeated until two consecutive
//     collects return the same vector — 8n messages and 4 round trips in
//     the contention-free case.
package stacked

import (
	"sync"
	"sync/atomic"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// Config parameterises one node.
type Config struct {
	Runtime node.Options
}

// Node is one participant of the stacked emulation.
type Node struct {
	rt  *node.ObjView
	id  int
	n   int
	tag atomic.Uint64 // distinguishes concurrent collector calls

	opMu sync.Mutex

	mu  sync.Mutex
	ts  int64
	reg types.RegVector
}

// New creates a node with identifier id over transport tr.
func New(id int, tr netsim.Transport, cfg Config) *Node {
	nd := &Node{id: id, n: tr.N(), reg: types.NewRegVector(tr.N())}
	nd.rt = node.Bind(id, tr, nd, cfg.Runtime)
	return nd
}

// Start launches the node's goroutines.
func (nd *Node) Start() { nd.rt.Start() }

// Close permanently stops the node.
func (nd *Node) Close() { nd.rt.Close() }

// Runtime exposes lifecycle controls.
func (nd *Node) Runtime() *node.Runtime { return nd.rt.Runtime }

// Write installs (v, ts+1) as this node's register at a majority: the ABD
// SWMR write (the writer owns the timestamp, so no query phase is needed).
func (nd *Node) Write(v types.Value) error {
	nd.opMu.Lock()
	defer nd.opMu.Unlock()

	nd.mu.Lock()
	nd.ts++
	// One defensive copy at the API boundary; local register and broadcast
	// share the immutable payload from here on.
	entry := types.TSValue{TS: nd.ts, Val: types.Freeze(v.Clone())}
	nd.reg[nd.id] = entry
	nd.mu.Unlock()

	tag := nd.tag.Add(1)
	_, err := nd.rt.Call(node.CallOpts{
		Build: func() *wire.Message {
			return &wire.Message{Type: wire.TUpdate, Entry: entry, Tag: tag, Src: int32(nd.id)}
		},
		Accept: func(m *wire.Message) bool {
			return m.Type == wire.TUpdateAck && m.Tag == tag
		},
	})
	return err
}

// collect performs one atomic read of the full register array: query a
// majority, merge, then write the merged vector back to a majority.
func (nd *Node) collect() (types.RegVector, error) {
	tag := nd.tag.Add(1)
	recs, err := nd.rt.Call(node.CallOpts{
		Build: func() *wire.Message {
			return &wire.Message{Type: wire.TCollect, Tag: tag}
		},
		Accept: func(m *wire.Message) bool {
			return m.Type == wire.TCollectAck && m.Tag == tag
		},
	})
	if err != nil {
		return nil, err
	}

	nd.mu.Lock()
	for _, m := range recs {
		nd.reg.MergeFrom(m.Reg)
	}
	view := nd.reg.Share()
	nd.mu.Unlock()

	// Its own variable, not tag reassigned: the dispatcher may still be
	// inside phase 1's Accept, which reads tag, after that Call returned.
	wbTag := nd.tag.Add(1)
	_, err = nd.rt.Call(node.CallOpts{
		Build: func() *wire.Message {
			return &wire.Message{Type: wire.TWriteBack, Reg: view, Tag: wbTag}
		},
		Accept: func(m *wire.Message) bool {
			return m.Type == wire.TWriteBackAck && m.Tag == wbTag
		},
	})
	if err != nil {
		return nil, err
	}
	return view, nil
}

// Snapshot repeats double collects until two consecutive collects agree
// (Afek et al.'s borrow-free fast path). Like Algorithm 1 it is
// non-blocking: under sustained concurrent writes it keeps collecting.
func (nd *Node) Snapshot() (types.RegVector, error) {
	nd.opMu.Lock()
	defer nd.opMu.Unlock()

	c1, err := nd.collect()
	if err != nil {
		return nil, err
	}
	for {
		c2, err := nd.collect()
		if err != nil {
			return nil, err
		}
		if c1.Equal(c2) {
			return c2, nil
		}
		c1 = c2
	}
}

// Tick is empty: the stacked baseline has no do-forever maintenance.
func (nd *Node) Tick() {}

// HandleMessage is the server side of the ABD emulation.
func (nd *Node) HandleMessage(m *wire.Message) {
	switch m.Type {
	case wire.TUpdate:
		src := int(m.Src)
		if src < 0 || src >= nd.n {
			return
		}
		nd.mu.Lock()
		if nd.reg[src].Less(m.Entry) {
			nd.reg[src] = m.Entry
		}
		nd.mu.Unlock()
		nd.rt.Send(int(m.From), &wire.Message{Type: wire.TUpdateAck, Tag: m.Tag})

	case wire.TCollect:
		nd.mu.Lock()
		reply := &wire.Message{Type: wire.TCollectAck, Reg: nd.reg.Share(), Tag: m.Tag}
		nd.mu.Unlock()
		nd.rt.Send(int(m.From), reply)

	case wire.TWriteBack:
		nd.mu.Lock()
		nd.reg.MergeFrom(m.Reg)
		nd.mu.Unlock()
		nd.rt.Send(int(m.From), &wire.Message{Type: wire.TWriteBackAck, Tag: m.Tag})
	}
}

// State is a copy of the node's variables.
type State struct {
	TS  int64
	Reg types.RegVector
}

// StateSummary returns a consistent copy of the node's state.
func (nd *Node) StateSummary() State {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return State{TS: nd.ts, Reg: nd.reg.Clone()}
}
