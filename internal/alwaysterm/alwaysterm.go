// Package alwaysterm implements the paper's Algorithm 2: Delporte-Gallet
// et al.'s always-terminating snapshot object, reproduced as the
// non-self-stabilizing baseline.
//
// Every node reliably broadcasts each snapshot invocation as a task
// SNAP(source, sn); all nodes then jointly execute the oldest outstanding
// task (job stealing) while deferring their own write operations, which
// guarantees that snapshot operations terminate regardless of the write
// invocation pattern — at a cost of O(n²) messages per snapshot and one
// task handled at a time. Results are disseminated with a reliable
// broadcast of END(source, sn, value) and remembered forever in the
// unbounded repSnap table (bounded memory is exactly what the
// self-stabilizing Algorithm 3 in package deltasnap adds).
package alwaysterm

import (
	"sort"
	"sync"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/rbcast"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// Config parameterises one node.
type Config struct {
	Runtime node.Options
}

// TaskKey identifies a snapshot task: node Src's SN-th snapshot.
type TaskKey struct {
	Src int32
	SN  int64
}

type pendingWrite struct {
	val  types.Value
	done chan struct{}
	err  error
}

// Node is one participant of Algorithm 2.
type Node struct {
	rt  *node.ObjView
	rb  *rbcast.RB
	cfg Config
	id  int
	n   int

	opMu sync.Mutex // serialises this node's client operations

	mu           sync.Mutex
	ts           int64
	ssn          int64
	sns          int64
	reg          types.RegVector
	writePending *pendingWrite
	repSnap      map[TaskKey]types.RegVector
	queue        []TaskKey // outstanding snapshot tasks, oldest first
}

// New creates a node with identifier id over transport tr.
func New(id int, tr netsim.Transport, cfg Config) *Node {
	nd := &Node{
		cfg:     cfg,
		id:      id,
		n:       tr.N(),
		reg:     types.NewRegVector(tr.N()),
		repSnap: make(map[TaskKey]types.RegVector),
	}
	nd.rt = node.Bind(id, tr, nd, cfg.Runtime)
	nd.rb = rbcast.New(id, tr.N(), func(to int, m *wire.Message) { nd.rt.Send(to, m) }, nd.rbDeliver)
	nd.rb.UseFanout(nd.rt.SendToMany) // marshal-once relay on capable transports
	return nd
}

// Start launches the node's goroutines.
func (nd *Node) Start() { nd.rt.Start() }

// Close permanently stops the node.
func (nd *Node) Close() { nd.rt.Close() }

// Runtime exposes lifecycle controls.
func (nd *Node) Runtime() *node.Runtime { return nd.rt.Runtime }

// Write performs the preemptible write(v) operation (lines 43–44): the
// value is parked in writePending and executed by the do-forever loop as a
// background task; the call returns when that task completes.
func (nd *Node) Write(v types.Value) error {
	nd.opMu.Lock()
	defer nd.opMu.Unlock()

	// Clone the caller's value once at the API boundary; it is immutable
	// from here on and baseWrite installs it without further copying.
	pw := &pendingWrite{val: types.Freeze(v.Clone()), done: make(chan struct{})}
	nd.mu.Lock()
	nd.writePending = pw
	nd.mu.Unlock()
	nd.rt.Kick() // line 38 runs now, not at the next tick

	err := nd.rt.WaitUntil(func() bool {
		select {
		case <-pw.done:
			return true
		default:
			return false
		}
	})
	if err != nil {
		return err
	}
	return pw.err
}

// Snapshot performs the snapshot() operation (lines 45–47): reliably
// broadcast the task SNAP(i, sns) and wait until its result lands in
// repSnap.
func (nd *Node) Snapshot() (types.RegVector, error) {
	nd.opMu.Lock()
	defer nd.opMu.Unlock()

	nd.mu.Lock()
	nd.sns++
	k := TaskKey{Src: int32(nd.id), SN: nd.sns}
	nd.mu.Unlock()

	nd.rb.Broadcast(&wire.Message{Type: wire.TSnap, Src: k.Src, TaskSN: k.SN})
	nd.rt.Kick() // the broadcast delivered locally: the task is queued for lines 39–42

	var res types.RegVector
	err := nd.rt.WaitUntil(func() bool {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		res = nd.repSnap[k]
		return res != nil
	})
	if err != nil {
		return nil, err
	}
	return res.Share(), nil
}

// Tick is one full iteration of the do-forever loop (lines 37–42), plus
// the reliable-broadcast layer's retransmission round, which recurs every
// LoopInterval and only then.
func (nd *Node) Tick() {
	nd.rb.Tick()
	nd.ServePending()
}

// ServePending is the loop body proper (lines 38–42): run the pending write
// task if any, then serve the oldest outstanding snapshot task to
// completion, deferring further writes meanwhile — the synchronisation that
// makes snapshots always terminate. It is the tail of every Tick and the
// whole of an on-demand iteration (node.OnDemand) right after Write or
// Snapshot kicked the loop.
func (nd *Node) ServePending() {
	nd.mu.Lock()
	pw := nd.writePending
	nd.writePending = nil
	nd.mu.Unlock()
	if pw != nil {
		pw.err = nd.baseWrite(pw.val)
		close(pw.done)
		nd.rt.Wake()
	}

	for {
		nd.mu.Lock()
		var task TaskKey
		found := false
		for _, k := range nd.queue {
			if nd.repSnap[k] == nil {
				task, found = k, true
				break
			}
		}
		nd.compactQueueLocked()
		nd.mu.Unlock()
		if !found {
			return
		}
		if err := nd.baseSnapshot(task); err != nil {
			return // crashed or shut down mid-task; the task stays queued
		}
	}
}

// compactQueueLocked drops completed tasks from the queue head.
func (nd *Node) compactQueueLocked() {
	keep := nd.queue[:0]
	for _, k := range nd.queue {
		if nd.repSnap[k] == nil {
			keep = append(keep, k)
		}
	}
	nd.queue = keep
}

// baseWrite is lines 48–51, identical to Algorithm 1's write client side.
func (nd *Node) baseWrite(v types.Value) error {
	nd.mu.Lock()
	nd.ts++
	nd.reg[nd.id] = types.TSValue{TS: nd.ts, Val: v} // v cloned+frozen in Write
	lReg := nd.reg.Share()
	nd.mu.Unlock()

	recs, err := nd.rt.Call(node.CallOpts{
		Build: func() *wire.Message {
			return &wire.Message{Type: wire.TWrite, Reg: lReg}
		},
		Accept: func(m *wire.Message) bool {
			return m.Type == wire.TWriteAck && lReg.LessEq(m.Reg)
		},
	})
	if err != nil {
		return err
	}
	nd.mu.Lock()
	for _, m := range recs {
		nd.reg.MergeFrom(m.Reg)
	}
	nd.mu.Unlock()
	return nil
}

// baseSnapshot is lines 52–59: double-collect with a fresh ssn per round;
// on a quiet round, reliably broadcast END(s, t, prev) so every node —
// including the task's initiator — stores the result.
func (nd *Node) baseSnapshot(k TaskKey) error {
	for {
		nd.mu.Lock()
		if nd.repSnap[k] != nil {
			nd.mu.Unlock()
			return nil
		}
		prev := nd.reg.Share()
		nd.ssn++
		ssn := nd.ssn
		nd.mu.Unlock()

		recs, err := nd.rt.Call(node.CallOpts{
			Build: func() *wire.Message {
				// Share, not deep-clone: Build runs once per retransmission
				// round.
				nd.mu.Lock()
				reg := nd.reg.Share()
				nd.mu.Unlock()
				return &wire.Message{Type: wire.TSnapshot, Src: k.Src, TaskSN: k.SN, Reg: reg, SSN: ssn}
			},
			Accept: func(m *wire.Message) bool {
				return m.Type == wire.TSnapshotAck && m.Src == k.Src && m.TaskSN == k.SN && m.SSN == ssn
			},
			Stop: func() bool {
				nd.mu.Lock()
				defer nd.mu.Unlock()
				return nd.repSnap[k] != nil
			},
		})
		if err != nil {
			return err
		}

		nd.mu.Lock()
		for _, m := range recs {
			nd.reg.MergeFrom(m.Reg)
		}
		quiet := nd.reg.Equal(prev)
		done := nd.repSnap[k] != nil
		nd.mu.Unlock()

		if done {
			return nil
		}
		if quiet {
			nd.rb.Broadcast(&wire.Message{
				Type:   wire.TEnd,
				Src:    k.Src,
				TaskSN: k.SN,
				Saves:  []wire.SaveEntry{{Node: k.Src, SNS: k.SN, Result: prev}},
			})
			return nil
		}
	}
}

// rbDeliver receives reliably broadcast SNAP and END messages (lines 39–40
// and 66).
func (nd *Node) rbDeliver(inner *wire.Message) {
	switch inner.Type {
	case wire.TSnap:
		k := TaskKey{Src: inner.Src, SN: inner.TaskSN}
		nd.mu.Lock()
		if nd.repSnap[k] == nil && !nd.queuedLocked(k) {
			nd.queue = append(nd.queue, k)
			// "the oldest of these messages": order tasks by (sn, src) so
			// every node serves them in the same global order.
			sort.Slice(nd.queue, func(a, b int) bool {
				if nd.queue[a].SN != nd.queue[b].SN {
					return nd.queue[a].SN < nd.queue[b].SN
				}
				return nd.queue[a].Src < nd.queue[b].Src
			})
		}
		nd.mu.Unlock()

	case wire.TEnd:
		if len(inner.Saves) != 1 || inner.Saves[0].Result == nil {
			return
		}
		k := TaskKey{Src: inner.Src, SN: inner.TaskSN}
		nd.mu.Lock()
		if nd.repSnap[k] == nil {
			nd.repSnap[k] = inner.Saves[0].Result // delivered results are immutable: adopt
		}
		nd.mu.Unlock()
		if int(k.Src) == nd.id {
			nd.rt.Wake() // Snapshot is waiting for exactly this
		}
	}
}

func (nd *Node) queuedLocked(k TaskKey) bool {
	for _, q := range nd.queue {
		if q == k {
			return true
		}
	}
	return false
}

// HandleMessage is the server side (lines 60–66) plus reliable-broadcast
// plumbing.
func (nd *Node) HandleMessage(m *wire.Message) {
	if nd.rb.Handle(m) {
		return
	}
	switch m.Type {
	case wire.TWrite:
		nd.mu.Lock()
		nd.reg.MergeFrom(m.Reg)
		reply := &wire.Message{Type: wire.TWriteAck, Reg: nd.reg.Share()}
		nd.mu.Unlock()
		nd.rt.Send(int(m.From), reply)

	case wire.TSnapshot:
		nd.mu.Lock()
		nd.reg.MergeFrom(m.Reg)
		reply := &wire.Message{
			Type: wire.TSnapshotAck, Src: m.Src, TaskSN: m.TaskSN,
			Reg: nd.reg.Share(), SSN: m.SSN,
		}
		nd.mu.Unlock()
		nd.rt.Send(int(m.From), reply)
	}
}

// Route implements node.Router for sharded dispatch. TWriteAck and
// TSnapshotAck go only to the quorum-call collector, so they take the ack
// lane. TRBCast/TRBAck stay on shard lanes — the reliable-broadcast layer
// handles them in HandleMessage (it tolerates reordering and duplication,
// so any stable keying is legal; per-sender keeps each peer's echo stream
// ordered). Everything else shards by sender (per-register FIFO).
func (nd *Node) Route(m *wire.Message) (node.Lane, int) {
	switch m.Type {
	case wire.TWriteAck, wire.TSnapshotAck:
		return node.LaneAck, 0
	}
	return node.LaneShard, int(m.From)
}

// State is a copy of the node's principal variables.
type State struct {
	TS, SSN, SNS int64
	Reg          types.RegVector
	QueueLen     int
	Results      int
}

// StateSummary returns a consistent copy of the node's state.
func (nd *Node) StateSummary() State {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return State{
		TS: nd.ts, SSN: nd.ssn, SNS: nd.sns,
		Reg: nd.reg.Clone(), QueueLen: len(nd.queue), Results: len(nd.repSnap),
	}
}
