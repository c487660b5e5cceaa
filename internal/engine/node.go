// Package engine is the deployable, asynchronous realization of the
// Figure 1 protocol: a Runtime hosts one or more nodes on a small worker
// pool, and each node wakes once per cycle (constant or exponentially
// distributed waiting time, §1.1), samples a neighbor from its membership
// layer and performs a push-pull exchange over a transport. Epoch
// restarts (§4) make the aggregates adaptive.
//
// The paper's analysis assumes zero-latency, perfectly synchronized
// exchanges; the engine relaxes both and is validated empirically against
// the same convergence targets in its tests.
package engine

import (
	"fmt"

	"repro/internal/core"
)

// WaitPolicy selects how a node draws its inter-exchange waiting time.
type WaitPolicy int

// Waiting-time policies from §1.1 and §3.3: constant Δt makes the node
// initiate exactly once per cycle (GETPAIR_SEQ dynamics), exponential
// waiting with mean Δt approximates GETPAIR_RAND.
const (
	ConstantWait WaitPolicy = iota + 1
	ExponentialWait
)

// String returns the policy name.
func (p WaitPolicy) String() string {
	switch p {
	case ConstantWait:
		return "constant"
	case ExponentialWait:
		return "exponential"
	default:
		return fmt.Sprintf("waitpolicy(%d)", int(p))
	}
}

// Stats is a snapshot of a node's protocol counters.
type Stats struct {
	Initiated     uint64 // exchanges started by the node
	Replies       uint64 // pull replies received and merged
	Timeouts      uint64 // exchanges abandoned waiting for the reply
	LateReplies   uint64 // post-timeout replies absorbed to conserve mass
	LateGivenUp   uint64 // timed-out exchanges whose late reply a newer timeout gave up
	Served        uint64 // pushes answered on the passive side
	EpochSwitches uint64 // restarts (local timer or observed id)
	StaleDropped  uint64 // messages discarded for carrying an old epoch
	SendErrors    uint64 // transport send failures
	BusyDropped   uint64 // pushes declined while an own exchange was in flight
	PeerBusy      uint64 // own pushes nacked by a busy peer
}

// Node is a handle on one node hosted by a Runtime (see Runtime.Nodes):
// its reads and writes address that node under its shard's lock.
type Node struct {
	rt  *Runtime
	idx int
}

// Addr returns the node's transport sub-address.
func (n *Node) Addr() string { return n.rt.Addr(n.idx) }

// SetValue updates the node's local attribute a_i. With epoch restarts
// enabled the new value enters the aggregate at the next epoch (§4's
// adaptivity); without epochs it only affects future restarts.
func (n *Node) SetValue(v float64) { n.rt.SetValue(n.idx, v) }

// InjectValue updates the node's local attribute to v and folds the
// difference into its approximation of field idx at once; see
// Runtime.InjectValue.
func (n *Node) InjectValue(idx int, v float64) { n.rt.InjectValue(n.idx, idx, v) }

// State returns a copy of the node's current approximation vector.
func (n *Node) State() core.State { return n.rt.NodeState(n.idx) }

// Estimate returns the node's current approximation of the named field.
func (n *Node) Estimate(field string) (float64, error) {
	idx, err := n.rt.schema.Index(field)
	if err != nil {
		return 0, err
	}
	return n.rt.NodeState(n.idx)[idx], nil
}

// Epoch returns the node's current epoch identifier.
func (n *Node) Epoch() uint64 { return n.rt.NodeEpoch(n.idx) }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats { return n.rt.NodeStats(n.idx) }
