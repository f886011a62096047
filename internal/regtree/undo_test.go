package regtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// treeImage is everything observable about an incremental tree: the packed
// nodes, the counters, the retained samples and which leaf holds which of
// them, in list order (a later Insert sums a leaf's targets in that order).
type treeImage struct {
	nodes         []node
	leaves, depth int
	cols          [][]float64
	targets       []float64
	members       [][]int32
}

func imageOf(t *Tree) treeImage {
	img := treeImage{
		nodes:   append([]node(nil), t.nodes...),
		leaves:  t.leaves,
		depth:   t.depth,
		targets: append([]float64(nil), t.inc.targets...),
	}
	for _, col := range t.inc.cols {
		img.cols = append(img.cols, append([]float64(nil), col...))
	}
	for _, list := range t.inc.leafSamples {
		img.members = append(img.members, append([]int32(nil), list...))
	}
	return img
}

// TestRollbackRestoresTreeBitwise drives random nested Mark / Insert /
// Rollback sequences — duplicates of one point (multiplicity ≥ 2 inside one
// frame), tight clusters that re-split leaves, constant targets that never
// do, MinSamplesSplit above 2 — against two oracles: every Rollback must
// restore the image taken at its Mark, and the tree must at all times equal a
// clone of the fitted tree that received the surviving inserts and nothing
// else.
func TestRollbackRestoresTreeBitwise(t *testing.T) {
	for _, params := range []Params{
		{},
		{MinSamplesSplit: 4, MinLeafSize: 2},
		{MaxDepth: 3},
		{FeatureFraction: 0.5},
	} {
		t.Run(fmt.Sprintf("%+v", params), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			fn := func(x []float64) float64 { return 3*x[0] - 2*x[1] + x[0]*x[2] }
			features := make([][]float64, 14)
			targets := make([]float64, len(features))
			for i := range features {
				features[i] = []float64{float64(rng.Intn(4)), float64(rng.Intn(3)), rng.Float64()}
				targets[i] = fn(features[i])
				if i%5 == 0 {
					targets[i] = 7 // a constant-target pocket
				}
			}
			fitted, err := TrainIncremental(features, targets, params, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatalf("TrainIncremental: %v", err)
			}
			work := fitted.Clone()

			type insert struct {
				x    []float64
				y    float64
				seed int64
			}
			type frame struct {
				image   treeImage
				applied int // surviving inserts when the frame opened
			}
			var applied []insert
			var frames []frame
			resplits := 0
			for step := 0; step < 600; step++ {
				switch op := rng.Intn(5); {
				case op == 0 && len(frames) < 3:
					frames = append(frames, frame{image: imageOf(work), applied: len(applied)})
					work.Mark()
				case op == 1 && len(frames) > 0:
					fr := frames[len(frames)-1]
					frames = frames[:len(frames)-1]
					work.Rollback()
					applied = applied[:fr.applied]
					if got := imageOf(work); !reflect.DeepEqual(got, fr.image) {
						t.Fatalf("step %d: Rollback left\n%+v\nwant the image at its Mark\n%+v", step, got, fr.image)
					}
				case len(frames) > 0 || op == 4:
					// Inserts outside any frame are permanent: the oracle
					// replays them too.
					ins := insert{seed: rng.Int63()}
					switch rng.Intn(3) {
					case 0: // a fitted point again, target and all
						k := rng.Intn(len(features))
						ins.x, ins.y = features[k], targets[k]
					case 1: // a tight cluster
						ins.x = []float64{1, 1, 0.5 + 0.01*rng.Float64()}
						ins.y = fn(ins.x) + rng.NormFloat64()
					default:
						ins.x = []float64{float64(rng.Intn(4)), float64(rng.Intn(3)), rng.Float64()}
						ins.y = fn(ins.x)
					}
					for m := 1 + rng.Intn(2); m > 0; m-- {
						before := work.Nodes()
						if _, err := work.Insert(ins.x, ins.y, rand.New(rand.NewSource(ins.seed))); err != nil {
							t.Fatalf("step %d: Insert: %v", step, err)
						}
						if work.Nodes() > before {
							resplits++
						}
						applied = append(applied, ins)
					}
				}
				oracle := fitted.Clone()
				for _, ins := range applied {
					if _, err := oracle.Insert(ins.x, ins.y, rand.New(rand.NewSource(ins.seed))); err != nil {
						t.Fatalf("step %d: oracle Insert: %v", step, err)
					}
				}
				if got, want := imageOf(work), imageOf(oracle); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (%d frames open, %d surviving inserts): tree\n%+v\nwant clone+inserts\n%+v",
						step, len(frames), len(applied), got, want)
				}
				if open := len(work.inc.marks); open != len(frames) {
					t.Fatalf("step %d: %d frames open, want %d", step, open, len(frames))
				}
			}
			if resplits == 0 {
				t.Error("no insert re-split a leaf; the fixture is too weak")
			}
		})
	}
}

// TestMarkInsertRollbackZeroAllocs is the allocation ratchet of the
// speculation unit at tree level: once the arrays have grown to their
// working size, a frame of inserts — a re-splitting one included — and its
// rollback come entirely out of the tree's arenas.
func TestMarkInsertRollbackZeroAllocs(t *testing.T) {
	features, targets := incFixture()
	fitted, err := TrainIncremental(features, targets, Params{}, nil)
	if err != nil {
		t.Fatalf("TrainIncremental: %v", err)
	}
	work := &Tree{}
	fitted.CloneInto(work)
	speculate := func() {
		work.Mark()
		for _, y := range []float64{100, 100, -40} {
			if _, err := work.Insert([]float64{1, 1.5}, y, nil); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
		work.Mark()
		if _, err := work.Insert([]float64{1, 1.25}, 3, nil); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		work.Rollback()
		work.Rollback()
	}
	before := work.Nodes()
	work.Mark()
	if _, err := work.Insert([]float64{1, 1.5}, 100, nil); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if work.Nodes() == before {
		t.Fatal("the probe insert does not re-split its leaf; the ratchet would not cover resplitLeaf")
	}
	work.Rollback()
	speculate() // warm the arrays and the re-split scratch
	if allocs := testing.AllocsPerRun(100, speculate); allocs > 0 {
		t.Errorf("warm Mark/Insert/Rollback allocates %.1f objects per round, want 0", allocs)
	}
	fitted.CloneInto(work)
	if allocs := testing.AllocsPerRun(100, func() { fitted.CloneInto(work); speculate() }); allocs > 0 {
		t.Errorf("CloneInto + Mark/Insert/Rollback allocates %.1f objects per round, want 0", allocs)
	}
}
