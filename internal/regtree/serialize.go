package regtree

import "errors"

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

// TreeState is the fitted state of a Tree as plain data: the flattened node
// array plus its summary counters — everything predictions depend on, nothing
// of the retained incremental-training state (TrainIncremental). It is the
// image tests compare: two trees with equal states predict bitwise alike, and
// the property tests rebuild a pointer-tree reference from it. Nothing reads
// one back into a Tree.
type TreeState struct {
	Nodes       []NodeState `json:"nodes"`
	NumFeatures int         `json:"num_features"`
	Leaves      int         `json:"leaves"`
	Depth       int         `json:"depth"`
}

// State extracts the fitted state of the tree. The emitted node list is the
// flattened preorder layout regardless of the in-memory representation.
func (t *Tree) State() (TreeState, error) {
	if t.Nodes() == 0 {
		return TreeState{}, errors.New("regtree: cannot serialize an untrained tree")
	}
	nodes := make([]NodeState, t.Nodes())
	for i, nd := range t.nodes {
		if nd.left < 0 {
			// Leaves carry their value in the packed node's thresh field;
			// the emitted form has Feature/Threshold zero and Left = -1.
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
