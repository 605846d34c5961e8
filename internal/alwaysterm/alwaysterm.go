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
// self-stabilizing Algorithm 3 in package deltasnap adds). Its register
// core — the write, the merge, the WRITE and SNAPSHOT server — is
// Algorithm 1's without the self-stabilizing additions: the kernel's Shell
// in baseline mode.
package alwaysterm

import (
	"sort"
	"sync"

	"selfstabsnap/internal/kernel"
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

// Node is one participant of Algorithm 2.
type Node struct {
	kernel.Shell
	rt *node.ObjView
	rb *rbcast.RB
	id int

	opMu sync.Mutex // serialises this node's client operations

	mu      sync.Mutex   // guards k, the parked write, repSnap and queue
	k       kernel.State // ts, ssn, sns, reg
	repSnap map[TaskKey]types.RegVector
	queue   []TaskKey // outstanding snapshot tasks, oldest first
}

// New creates a node with identifier id over transport tr.
func New(id int, tr netsim.Transport, cfg Config) *Node {
	nd := &Node{id: id, k: kernel.New(id, tr.N(), false), repSnap: make(map[TaskKey]types.RegVector)}
	nd.rt = node.Bind(id, tr, nd, cfg.Runtime)
	nd.Shell = kernel.NewShell(nd.rt, kernel.NewGossip(nd.rt), &nd.mu, &nd.k, true)
	nd.rb = rbcast.New(id, tr.N(), func(to int, m *wire.Message) { nd.rt.Send(to, m) }, nd.rbDeliver)
	nd.rb.UseFanout(nd.rt.SendToMany) // marshal-once relay on capable transports
	return nd
}

// Write performs the preemptible write(v) operation (lines 43–44): the
// value is parked and executed by the do-forever loop as a background
// task; the call returns when that task completes.
func (nd *Node) Write(v types.Value) error {
	nd.opMu.Lock()
	defer nd.opMu.Unlock()
	return nd.ParkWrite(v)
}

// Snapshot performs the snapshot() operation (lines 45–47): reliably
// broadcast the task SNAP(i, sns) and wait until its result lands in
// repSnap.
func (nd *Node) Snapshot() (types.RegVector, error) {
	nd.opMu.Lock()
	defer nd.opMu.Unlock()

	nd.mu.Lock()
	nd.k.SNS++
	k := TaskKey{Src: int32(nd.id), SN: nd.k.SNS}
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
	nd.ServeParked() // the write is lines 48–51, Algorithm 1's write

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
		prev := nd.k.Reg.Share()
		nd.k.SSN++
		ssn := nd.k.SSN
		nd.mu.Unlock()

		recs, err := nd.rt.Call(node.CallOpts{
			Build: func() *wire.Message {
				// Share, not deep-clone: Build runs once per retransmission
				// round.
				nd.mu.Lock()
				reg := nd.k.Reg.Share()
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
		nd.k.Fold(recs)
		quiet := nd.k.Reg.Equal(prev)
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

// HandleMessage is the reliable-broadcast plumbing plus the server side
// (lines 60–66), which is the kernel's.
func (nd *Node) HandleMessage(m *wire.Message) {
	if !nd.rb.Handle(m) {
		nd.Shell.HandleMessage(m)
	}
}

// State is a copy of the node's principal variables.
type State struct {
	kernel.View
	QueueLen int
	Results  int
}

// StateSummary returns a consistent copy of the node's state.
func (nd *Node) StateSummary() State {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return State{View: nd.k.View(), QueueLen: len(nd.queue), Results: len(nd.repSnap)}
}
