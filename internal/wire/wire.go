// Package wire defines every message exchanged by the snapshot algorithms
// and a compact, self-describing binary codec for them.
//
// A single Message struct carries the union of all fields used by the four
// algorithm families (Delporte-Gallet non-blocking and always-terminating,
// their self-stabilizing variants, the stacked ABD+Afek baseline, and the
// bounded-counter/global-reset machinery). Every message knows its size in
// bytes (Size), which the network layers use to meter communication cost in
// bits — the quantity the paper's complexity claims are stated in.
package wire

import "fmt"

// Type identifies a message kind. Values are stable on the wire.
type Type uint8

// Message kinds. The names match the paper's pseudocode where one exists.
const (
	TInvalid Type = iota

	// Algorithms 1–3 (Delporte-Gallet and self-stabilizing variants).
	TWrite       // WRITE(reg)                client → all
	TWriteAck    // WRITEack(reg)             server → client
	TSnapshot    // SNAPSHOT([s,t,]reg,ssn)   client → all
	TSnapshotAck // SNAPSHOTack([s,t,]reg,ssn)server → client
	TGossip      // GOSSIP(reg[k][,pndTsk[k],sns]) p_i → p_k
	TGossipAck   // GOSSIPack(ts,sns[,done]): p_k echoes its own indices

	// Algorithm 2 (reliable broadcast payloads).
	TSnap // SNAP(source,sn): announce a snapshot task
	TEnd  // END(source,sn,val): announce a snapshot result

	// Algorithm 3 safe-register emulation.
	TSave    // SAVE(A): store snapshot results at a majority
	TSaveAck // SAVEack({(k,s)})

	// Reliable-broadcast envelope (wraps TSnap/TEnd) and its ack.
	TRBCast
	TRBAck

	// Stacked baseline: ABD register emulation + double-collect snapshot.
	TCollect    // COLLECT(tag): read the full register array
	TCollectAck // COLLECTack(reg,tag)
	TUpdate     // UPDATE(entry,tag): writer installs its own register
	TUpdateAck  // UPDATEack(tag)
	TWriteBack  // WRITEBACK(reg,tag): second phase of an atomic read
	TWriteBackAck

	// Bounded-counter variation (§5): wraparound control plane.
	TMaxIdx // MAXIDX(reg, epoch, frozen): gossip of maximal indices

	// Self-stabilizing multivalued consensus (Lundström–Raynal–Schiller
	// 2021), one instance per reset epoch. Ballots ride in TS, accepted
	// ballots in SNS, and proposal/decision values are frozen register
	// vectors carried in Reg.
	TCnsPrep   // CNS-PREPARE(epoch, ballot)
	TCnsProm   // CNS-PROMISE(epoch, ballot, acceptedBallot, acceptedValue)
	TCnsAcc    // CNS-ACCEPT(epoch, ballot, value)
	TCnsAccAck // CNS-ACCEPTack(epoch, ballot)
	TCnsDecide // CNS-DECIDE(epoch, ballot, value)

	numTypes
)

var typeNames = [...]string{
	TInvalid:      "INVALID",
	TWrite:        "WRITE",
	TWriteAck:     "WRITEack",
	TSnapshot:     "SNAPSHOT",
	TSnapshotAck:  "SNAPSHOTack",
	TGossip:       "GOSSIP",
	TGossipAck:    "GOSSIPack",
	TSnap:         "SNAP",
	TEnd:          "END",
	TSave:         "SAVE",
	TSaveAck:      "SAVEack",
	TRBCast:       "RBCAST",
	TRBAck:        "RBACK",
	TCollect:      "COLLECT",
	TCollectAck:   "COLLECTack",
	TUpdate:       "UPDATE",
	TUpdateAck:    "UPDATEack",
	TWriteBack:    "WRITEBACK",
	TWriteBackAck: "WRITEBACKack",
	TMaxIdx:       "MAXIDX",
	TCnsPrep:      "CNS-PREPARE",
	TCnsProm:      "CNS-PROMISE",
	TCnsAcc:       "CNS-ACCEPT",
	TCnsAccAck:    "CNS-ACCEPTack",
	TCnsDecide:    "CNS-DECIDE",
}

// String returns the pseudocode name of the message type.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Valid reports whether t is a known message type.
func (t Type) Valid() bool { return t > TInvalid && t < numTypes }
