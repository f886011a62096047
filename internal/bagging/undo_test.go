package bagging

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/numeric"
)

// stateBytes is the serialized fitted state, the bitwise identity of the trees.
func stateBytes(t testing.TB, e *Ensemble) []byte {
	t.Helper()
	s, err := e.State()
	if err != nil {
		t.Fatalf("State: %v", err)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	return b
}

func freshSweep(t testing.TB, e *Ensemble, cols [][]float64, n int) []numeric.Gaussian {
	t.Helper()
	out := make([]numeric.Gaussian, n)
	if err := e.PredictBatch(cols, out); err != nil {
		t.Fatalf("PredictBatch: %v", err)
	}
	return out
}

// checkRepairState verifies a repair state that claims to be consistent
// against the trees themselves: every matrix entry is the tree's prediction of
// the point, and every point sits in the segment of the leaf covering it —
// which, the leaves' segments being disjoint, pins the segment sets.
func checkRepairState(t testing.TB, e *Ensemble, probes [][]float64, label string) {
	t.Helper()
	preds, leafOf := e.RepairState()
	if preds == nil {
		return
	}
	n := len(probes)
	for ti, tree := range e.trees {
		for i, x := range probes {
			want, leaf := tree.PredictLeafUnchecked(x)
			if preds[ti*n+i] != want {
				t.Fatalf("%s: repair matrix tree %d point %d = %v, the tree predicts %v", label, ti, i, preds[ti*n+i], want)
			}
			if leafOf[ti*n+i] != leaf {
				t.Fatalf("%s: tree %d point %d indexed under leaf %d, covered by leaf %d", label, ti, i, leafOf[ti*n+i], leaf)
			}
		}
	}
}

// undoHarness drives one ensemble through nested Update / repair / Undo the
// way model.Cached does, keeping the memo, and checks every step against a
// CloneInto + Update replay of the surviving samples.
type undoHarness struct {
	t      testing.TB
	fitted *Ensemble // never mutated: the replay's source
	work   *Ensemble
	probes [][]float64
	cols   [][]float64
	preds  []numeric.Gaussian
	valid  bool // preds describes work (model.Cached's "valid")

	samples []undoSample
	frames  []undoFrame
}

type undoSample struct {
	x []float64
	y float64
}

type undoFrame struct {
	state    []byte
	sweep    []numeric.Gaussian
	ids      []int32
	old      []numeric.Gaussian
	repaired bool // ids/old are what this frame's repair overwrote
	resweep  bool // a sweep has rewritten the memo since
}

func (h *undoHarness) sweep() {
	if err := h.work.PredictBatchRepair(h.cols, h.preds); err != nil {
		h.t.Fatalf("PredictBatchRepair: %v", err)
	}
	h.valid = true
	for k := range h.frames {
		h.frames[k].resweep = true
	}
}

func (h *undoHarness) apply(s undoSample, repair bool) {
	fr := undoFrame{state: stateBytes(h.t, h.work), sweep: freshSweep(h.t, h.work, h.cols, len(h.probes))}
	if err := h.work.Update(s.x, s.y); err != nil {
		h.t.Fatalf("Update: %v", err)
	}
	h.samples = append(h.samples, s)
	h.frames = append(h.frames, fr)
	top := &h.frames[len(h.frames)-1]
	switch {
	case !repair:
		h.valid = false // an update behind the memo's back
	case h.valid:
		var usable bool
		var err error
		top.ids, top.old, usable, err = h.work.RepairLastUpdate(h.cols, h.preds, nil, nil)
		if err != nil {
			h.t.Fatalf("RepairLastUpdate: %v", err)
		}
		if top.repaired = usable; !usable {
			h.sweep()
		}
	}
	h.check("after apply")
}

func (h *undoHarness) undo() {
	fr := h.frames[len(h.frames)-1]
	h.frames = h.frames[:len(h.frames)-1]
	h.samples = h.samples[:len(h.samples)-1]
	if err := h.work.Undo(); err != nil {
		h.t.Fatalf("Undo: %v", err)
	}
	if h.valid {
		if fr.resweep || !fr.repaired {
			h.sweep()
		} else {
			for k, id := range fr.ids {
				h.preds[id] = fr.old[k]
			}
			if p, _ := h.work.RepairState(); p == nil {
				h.t.Fatalf("undoing a repaired update left the repair state unusable")
			}
		}
	}
	if got := stateBytes(h.t, h.work); !bytes.Equal(got, fr.state) {
		h.t.Fatalf("Undo left state\n%s\nwant the state before the update\n%s", got, fr.state)
	}
	for i, want := range fr.sweep {
		if got := freshSweep(h.t, h.work, h.cols, len(h.probes))[i]; got != want {
			h.t.Fatalf("Undo left point %d at %+v, want %+v as before the update", i, got, want)
		}
	}
	h.check("after undo")
}

// check compares the working ensemble against CloneInto + Update of the
// surviving samples, the memo (when it claims validity) against a fresh
// sweep, and the repair state (when it claims consistency) against the trees.
func (h *undoHarness) check(label string) {
	oracle := New(h.fitted.params, 99)
	if err := h.fitted.CloneInto(oracle); err != nil {
		h.t.Fatalf("CloneInto: %v", err)
	}
	for _, s := range h.samples {
		if err := oracle.Update(s.x, s.y); err != nil {
			h.t.Fatalf("oracle Update: %v", err)
		}
	}
	if got, want := stateBytes(h.t, h.work), stateBytes(h.t, oracle); !bytes.Equal(got, want) {
		h.t.Fatalf("%s (%d pending): state\n%s\nwant CloneInto+Update\n%s", label, len(h.samples), got, want)
	}
	if h.work.Updates() != oracle.Updates() {
		h.t.Fatalf("%s: Updates() = %d, want %d", label, h.work.Updates(), oracle.Updates())
	}
	want := freshSweep(h.t, oracle, h.cols, len(h.probes))
	for i, got := range freshSweep(h.t, h.work, h.cols, len(h.probes)) {
		if got != want[i] {
			h.t.Fatalf("%s: point %d predicts %+v, CloneInto+Update predicts %+v", label, i, got, want[i])
		}
		if h.valid && h.preds[i] != want[i] {
			h.t.Fatalf("%s: memo[%d] = %+v, fresh sweep %+v", label, i, h.preds[i], want[i])
		}
	}
	checkRepairState(h.t, h.work, h.probes, label)
}

// newUndoHarness fits a random ensemble — discrete and continuous features,
// duplicate rows, a constant-target pocket — and arms the repair state over
// random probes, a few of which coincide with training rows.
func newUndoHarness(t testing.TB, seed int64, params Params) *undoHarness {
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(30)
	features := make([][]float64, n)
	targets := make([]float64, n)
	for i := range features {
		if i > 0 && rng.Intn(6) == 0 {
			features[i] = features[rng.Intn(i)]
		} else {
			features[i] = []float64{float64(rng.Intn(4)), rng.Float64() * 8, float64(rng.Intn(3))}
		}
		targets[i] = 2*features[i][0] + features[i][1] + rng.NormFloat64()
		if features[i][2] == 0 {
			targets[i] = 5
		}
	}
	params.Incremental = true
	fitted := New(params, seed)
	if err := fitted.Fit(features, targets); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	work := New(params, seed+1)
	if err := fitted.CloneInto(work); err != nil {
		t.Fatalf("CloneInto: %v", err)
	}
	h := &undoHarness{t: t, fitted: fitted, work: work}
	h.probes = make([][]float64, 48)
	h.cols = make([][]float64, 3)
	for f := range h.cols {
		h.cols[f] = make([]float64, len(h.probes))
	}
	for i := range h.probes {
		if i%4 == 0 {
			h.probes[i] = features[rng.Intn(n)]
		} else {
			h.probes[i] = []float64{rng.Float64()*6 - 1, rng.Float64()*12 - 2, rng.Float64()*5 - 1}
		}
		for f := range h.cols {
			h.cols[f][i] = h.probes[i][f]
		}
	}
	h.preds = make([]numeric.Gaussian, len(h.probes))
	h.sweep()
	return h
}

// run interprets ops as a nested apply/undo script, at most three deep. The
// two low bits of a byte pick the operation — apply and repair, undo, apply
// behind the memo's back, re-sweep under open frames — and the rest the
// sample: a training-like grid point, a probe again (a duplicate once it has
// been applied), or a point of a tight cluster, with a target that repeats
// often enough to build constant leaves.
func (h *undoHarness) run(ops []byte) {
	for _, op := range ops {
		arg := int(op >> 2)
		var s undoSample
		switch arg % 3 {
		case 0:
			s.x = []float64{float64(arg % 4), float64(arg%8) + 0.5, float64(arg % 3)}
		case 1:
			s.x = h.probes[arg%len(h.probes)]
		default:
			s.x = []float64{1, 3 + 0.01*float64(arg%5), 1}
		}
		s.y = float64(arg%7) - 2
		switch op & 3 {
		case 0, 2:
			if len(h.frames) == 3 {
				h.undo()
				continue
			}
			h.apply(s, op&3 == 0)
		case 1:
			if len(h.frames) > 0 {
				h.undo()
			}
		default:
			h.sweep()
			h.check("after a sweep under open frames")
		}
	}
	for len(h.frames) > 0 {
		h.undo()
	}
}

// FuzzEnsembleUpdateUndo: for a random fit and a random nested apply/undo
// script, Undo restores State() and every prediction bitwise, the ensemble
// always equals CloneInto + Update of the samples still applied, and memo and
// repair state stay exact through repairs, fallback sweeps and their undos.
func FuzzEnsembleUpdateUndo(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0, 4, 8, 1, 1, 1})
	f.Add(int64(2), uint8(1), []byte{0, 0, 0, 1, 0, 1, 1, 1})                   // three deep, twice
	f.Add(int64(3), uint8(0), []byte{8, 8, 8, 9, 8, 9, 8, 1, 1})                // one cluster: duplicates and re-splits
	f.Add(int64(4), uint8(2), []byte{2, 0, 1, 1, 3, 0, 1})                      // behind the memo's back, then the fallback
	f.Add(int64(5), uint8(0), []byte{0, 3, 4, 1, 1, 4, 4, 3, 1, 1})             // sweeps under open frames
	f.Add(int64(6), uint8(3), []byte{20, 20, 20, 1, 1, 1, 20, 40, 1, 60, 1, 1}) // the same sample at every depth
	f.Add(int64(-86), uint8(0), []byte("\x0020000"))                            // a repaired frame under two unrepaired ones (found by fuzzing)
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		// shape's low two bits size the ensemble; its higher bits once chose
		// induction and resampling variants and are ignored, so the corpus
		// keeps its entries.
		newUndoHarness(t, seed, Params{NumTrees: 2 + int(shape%4)*2}).run(ops)
	})
}

// TestSpeculatedOutcomeZeroAllocs is the allocation ratchet of the planner's
// speculation unit: once the working copy is warm, folding a sample in,
// repairing the memo and taking both back allocate nothing — two deep
// included, re-splits included.
func TestSpeculatedOutcomeZeroAllocs(t *testing.T) {
	h := newUndoHarness(t, 41, Params{NumTrees: 10})
	var pairs [2]struct {
		ids []int32
		old []numeric.Gaussian
	}
	apply := func(depth int, x []float64, y float64) {
		if err := h.work.Update(x, y); err != nil {
			t.Fatalf("Update: %v", err)
		}
		p := &pairs[depth]
		var usable bool
		var err error
		p.ids, p.old, usable, err = h.work.RepairLastUpdate(h.cols, h.preds, p.ids[:0], p.old[:0])
		if err != nil || !usable {
			t.Fatalf("RepairLastUpdate: usable=%v err=%v", usable, err)
		}
	}
	undo := func(depth int) {
		if err := h.work.Undo(); err != nil {
			t.Fatalf("Undo: %v", err)
		}
		for k, id := range pairs[depth].ids {
			h.preds[id] = pairs[depth].old[k]
		}
	}
	resplit := false
	round := func() {
		for _, y := range []float64{-3, 9} {
			nodes := h.work.trees[0].Nodes()
			apply(0, []float64{1, 3.02, 1}, y)
			apply(1, []float64{1, 3.03, 1}, 4)
			for _, tree := range h.work.trees {
				resplit = resplit || tree.Nodes() > nodes
			}
			undo(1)
			undo(0)
		}
	}
	before := stateBytes(t, h.work)
	round()
	round()
	if !resplit {
		t.Fatal("no update of the round re-splits a leaf; the ratchet would not cover the re-partition")
	}
	if got := stateBytes(t, h.work); !bytes.Equal(got, before) {
		t.Fatal("the ratchet's rounds do not leave the ensemble as they found it")
	}
	if allocs := testing.AllocsPerRun(50, round); allocs > 0 {
		t.Errorf("warm update → repair → undo allocates %.1f objects per round, want 0", allocs)
	}
	h.check("after the ratchet")
}
