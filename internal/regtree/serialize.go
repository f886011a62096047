package regtree

import (
	"errors"
	"fmt"
	"math"
)

// NodeState is the serializable form of one flattened tree node. Left < 0
// marks a leaf carrying Value; internal nodes carry the split and the indices
// of their children within the node slice.
type NodeState struct {
	Feature   int32   `json:"feature"`
	Threshold float64 `json:"threshold"`
	Left      int32   `json:"left"`
	Right     int32   `json:"right"`
	Value     float64 `json:"value"`
}

// TreeState is the serializable fitted state of a Tree: the flattened node
// array plus its summary counters. It captures everything predictions need;
// the retained incremental-training state (TrainIncremental) is deliberately
// not serialized, so a restored tree predicts identically but cannot absorb
// further online updates.
type TreeState struct {
	Nodes       []NodeState `json:"nodes"`
	NumFeatures int         `json:"num_features"`
	Leaves      int         `json:"leaves"`
	Depth       int         `json:"depth"`
}

// State extracts the serializable fitted state of the tree. The emitted node
// list is the flattened preorder layout regardless of the in-memory
// representation, so the v1 snapshot format is unchanged by the
// structure-of-arrays storage.
func (t *Tree) State() (TreeState, error) {
	if t.Nodes() == 0 {
		return TreeState{}, errors.New("regtree: cannot serialize an untrained tree")
	}
	nodes := make([]NodeState, t.Nodes())
	for i, nd := range t.nodes {
		if nd.left < 0 {
			// Leaves carry their value in the packed node's thresh field;
			// the emitted form keeps the v1 convention (Feature/Threshold
			// zero, Left = -1) so snapshots stay bitwise identical.
			nodes[i] = NodeState{Left: -1, Value: nd.thresh}
			continue
		}
		nodes[i] = NodeState{
			Feature:   nd.feat,
			Threshold: nd.thresh,
			Left:      nd.left,
			Right:     nd.right,
		}
	}
	return TreeState{
		Nodes:       nodes,
		NumFeatures: t.numFeatures,
		Leaves:      t.leaves,
		Depth:       t.depth,
	}, nil
}

// FromState reconstructs a prediction-ready tree from serialized state,
// validating the node graph so a corrupted snapshot cannot send
// PredictUnchecked out of bounds.
func FromState(s TreeState) (*Tree, error) {
	if len(s.Nodes) == 0 {
		return nil, errors.New("regtree: tree state has no nodes")
	}
	if s.NumFeatures < 1 {
		return nil, fmt.Errorf("regtree: tree state has %d features", s.NumFeatures)
	}
	n := int32(len(s.Nodes))
	t := &Tree{
		nodes:       make([]node, len(s.Nodes)),
		numFeatures: s.NumFeatures,
		leaves:      s.Leaves,
		depth:       s.Depth,
	}
	for i, ns := range s.Nodes {
		if ns.Left < 0 {
			// Leaf: only the value matters, stored in the packed node's
			// thresh field.
			if math.IsNaN(ns.Value) || math.IsInf(ns.Value, 0) {
				return nil, fmt.Errorf("regtree: leaf %d has non-finite value %v", i, ns.Value)
			}
			t.nodes[i] = node{thresh: ns.Value, left: -1}
			continue
		}
		if ns.Left >= n || ns.Right < 0 || ns.Right >= n {
			return nil, fmt.Errorf("regtree: node %d has child indices (%d, %d) outside [0, %d)", i, ns.Left, ns.Right, n)
		}
		if int(ns.Left) <= i || int(ns.Right) <= i {
			// The flattened layout keeps children after their parent, which
			// also rules out traversal cycles.
			return nil, fmt.Errorf("regtree: node %d has non-preorder child indices (%d, %d)", i, ns.Left, ns.Right)
		}
		if ns.Feature < 0 || int(ns.Feature) >= s.NumFeatures {
			return nil, fmt.Errorf("regtree: node %d splits on feature %d of %d", i, ns.Feature, s.NumFeatures)
		}
		if math.IsNaN(ns.Threshold) {
			return nil, fmt.Errorf("regtree: node %d has NaN threshold", i)
		}
		t.nodes[i] = node{thresh: ns.Threshold, feat: ns.Feature, left: ns.Left, right: ns.Right}
	}
	return t, nil
}
