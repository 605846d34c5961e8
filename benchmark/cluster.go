package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"selfstabsnap/internal/deltasnap"
	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/nonblocking"
	"selfstabsnap/internal/tcpnet"
	"selfstabsnap/internal/types"
)

// clusterSize is fixed: f=2, majority 3. n=16 over TCP is 240 sockets and
// does not fit a 2-core box.
const clusterSize = 5

// snapNode is the slice of the algorithm surface the benchmark drives:
// client operations, transient-fault injection, and what recovery is
// judged by. Both nonblocking.Node and deltasnap.Node have it.
type snapNode interface {
	Start()
	Write(types.Value) error
	Snapshot() (types.RegVector, error)
	Corrupt(*rand.Rand)
	LocalInvariantHolds() bool
	Runtime() *node.Runtime
	Close()
}

// cluster is one assembled system: a transport (shared netsim network or a
// TCP loopback mesh), one algorithm node per id, and — for traced windows —
// the recorder every node's transport reports to.
type cluster struct {
	spec  *workload
	nodes []snapNode
	// state returns node i's (ts, sns, reg, pndSNS) for the cross-node
	// invariants of Definition 1.
	state    []func() (int64, int64, types.RegVector, []int64)
	counters []*metrics.Counters // distinct meters: 1 on netsim, n on tcpnet
	tracer   *tracer             // nil unless traced
	closeNet func()
	closed   sync.Once
}

// assemble builds and starts a cluster for spec. sim-* and tcp-* workloads
// differ only in the transport handed to the node constructors. A non-nil
// tr wraps every node's transport in a tracedTransport.
func assemble(spec *workload, seed int64, tr *tracer) (*cluster, error) {
	c := &cluster{spec: spec, tracer: tr}
	var transports []netsim.Transport
	if spec.tcp {
		mesh, err := tcpnet.NewMesh(clusterSize)
		if err != nil {
			return nil, fmt.Errorf("tcp mesh: %w", err)
		}
		c.closeNet = mesh.Close
		for _, t := range mesh.Transports {
			transports = append(transports, t)
			c.counters = append(c.counters, t.Counters())
		}
	} else {
		net := netsim.New(netsim.Config{
			N: clusterSize, Seed: seed,
			Adversary: netsim.Adversary{MinDelay: spec.minDelay, MaxDelay: spec.maxDelay},
		})
		c.closeNet = net.Close
		c.counters = []*metrics.Counters{net.Counters()}
		for i := 0; i < clusterSize; i++ {
			transports = append(transports, net)
		}
	}
	ropts := node.Options{LoopInterval: spec.loopInterval, RetxInterval: spec.retxInterval}
	for i := 0; i < clusterSize; i++ {
		t := transports[i]
		if tr != nil {
			t = newTracedTransport(t, tr)
		}
		if spec.delta {
			nd := deltasnap.New(i, t, deltasnap.Config{Delta: 2, Runtime: ropts})
			c.nodes = append(c.nodes, nd)
			c.state = append(c.state, func() (int64, int64, types.RegVector, []int64) {
				st := nd.StateSummary()
				return st.TS, st.SNS, st.Reg, st.PndSNS
			})
		} else {
			nd := nonblocking.New(i, t, nonblocking.Config{SelfStabilizing: true, Runtime: ropts})
			c.nodes = append(c.nodes, nd)
			c.state = append(c.state, func() (int64, int64, types.RegVector, []int64) {
				st := nd.StateSummary()
				return st.TS, 0, st.Reg, nil
			})
		}
	}
	for _, nd := range c.nodes {
		nd.Start()
	}
	return c, nil
}

func (c *cluster) close() {
	c.closed.Do(func() {
		for _, nd := range c.nodes {
			nd.Close()
		}
		c.closeNet()
	})
}

// traffic sums the cluster's transport meters.
func (c *cluster) traffic() metrics.Snapshot {
	total := c.counters[0].Snapshot()
	for _, ctr := range c.counters[1:] {
		s := ctr.Snapshot()
		for t, tc := range s.PerType {
			cur := total.PerType[t]
			total.PerType[t] = metrics.TypeCount{Messages: cur.Messages + tc.Messages, Bytes: cur.Bytes + tc.Bytes}
		}
		total.Messages += s.Messages
		total.Bytes += s.Bytes
		total.Drops += s.Drops
		total.Dups += s.Dups
		total.Evictions += s.Evictions
		total.Reconnects += s.Reconnects
		total.WriteFailures += s.WriteFailures
		total.InvalidTypes += s.InvalidTypes
		total.InvalidObjs += s.InvalidObjs
		total.GossipFull += s.GossipFull
		total.GossipFullBytes += s.GossipFullBytes
		total.GossipDelta += s.GossipDelta
		total.GossipDeltaBytes += s.GossipDeltaBytes
		total.GossipSuppressed += s.GossipSuppressed
	}
	return total
}

// corruptAll injects a transient fault at every node: all algorithm
// variables are overwritten with arbitrary values drawn from rng.
func (c *cluster) corruptAll(rng *rand.Rand) {
	for _, nd := range c.nodes {
		nd.Corrupt(rng)
	}
}

// invariantsHold checks Definition 1 / Theorem 1 across the cluster:
// locally at every node, and ts_i ≥ reg_j[i].ts, sns_i ≥ pndTsk_j[i].sns
// for every pair. It is core.Cluster.InvariantsHold over directly
// assembled nodes — core.NewCluster is hard-wired to netsim, and recovery
// is measured on tcpnet too.
func (c *cluster) invariantsHold() bool {
	type view struct {
		ts, sns int64
		reg     types.RegVector
		pnd     []int64
	}
	views := make([]view, len(c.nodes))
	for i, nd := range c.nodes {
		if !nd.LocalInvariantHolds() {
			return false
		}
		v := &views[i]
		v.ts, v.sns, v.reg, v.pnd = c.state[i]()
	}
	for i := range views {
		for j := range views {
			if views[j].reg[i].TS > views[i].ts {
				return false
			}
			if views[j].pnd != nil && views[j].pnd[i] > views[i].sns {
				return false
			}
		}
	}
	return true
}

func (c *cluster) loopCounts() []int64 {
	out := make([]int64, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.Runtime().LoopCount()
	}
	return out
}

var errRecoverTimeout = errors.New("recovery timed out")

// invariantPoll is how often recovery is probed. Finer than the 1 ms
// do-forever interval so the recovery time is not quantised by the probe.
const invariantPoll = 200 * time.Microsecond

// cyclesToInvariant waits until the invariants hold and stay held across
// one further do-forever cycle at every node (so corrupted values still in
// flight have landed), and returns the largest number of cycles any node
// took — the measured counterpart of the paper's O(1) recovery theorems.
func (c *cluster) cyclesToInvariant(timeout time.Duration) (int64, error) {
	start := c.loopCounts()
	deadline := time.Now().Add(timeout)
	for {
		if c.invariantsHold() {
			held := c.loopCounts()
			for !c.allAdvanced(held) {
				if time.Now().After(deadline) {
					return 0, errRecoverTimeout
				}
				time.Sleep(invariantPoll)
			}
			if c.invariantsHold() {
				var worst int64
				for i, now := range c.loopCounts() {
					if d := now - start[i]; d > worst {
						worst = d
					}
				}
				return worst, nil
			}
			continue
		}
		if time.Now().After(deadline) {
			return 0, errRecoverTimeout
		}
		time.Sleep(invariantPoll)
	}
}

func (c *cluster) allAdvanced(since []int64) bool {
	for i, nd := range c.nodes {
		if nd.Runtime().LoopCount() <= since[i] {
			return false
		}
	}
	return true
}
