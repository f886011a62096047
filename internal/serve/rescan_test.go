package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	lynceus "repro"
)

// servesimSpec is the cheap servesim campaign of the rescan test: the batch
// profile under its SLO constraint, tuned myopically. Its snapshots carry
// the environment's state.
func servesimSpec(t testing.TB, id string, seed int64) createRequest {
	t.Helper()
	env, err := lynceus.NewServingEnvironment("batch", 0)
	if err != nil {
		t.Fatal(err)
	}
	tmax, meanCost, err := env.ApproxStats(0.5, 96)
	if err != nil {
		t.Fatal(err)
	}
	return createRequest{
		ID:    id,
		Env:   EnvSpec{Kind: "servesim", Name: "batch", Seed: seed},
		Tuner: TunerSpec{Myopic: true},
		Options: OptionsSpec{
			Budget:            12 * meanCost,
			MaxRuntimeSeconds: tmax,
			BootstrapSize:     5,
			Seed:              seed,
			ExtraConstraints:  []lynceus.Constraint{env.Constraint()},
		},
	}
}

// spacePanicEnv panics with its value when asked for its space, which the
// first thing resuming or starting a campaign does.
type spacePanicEnv struct{ p any }

func (e spacePanicEnv) Space() *lynceus.Space                            { panic(e.p) }
func (e spacePanicEnv) Run(lynceus.Config) (lynceus.Trial, error)        { panic(e.p) }
func (e spacePanicEnv) UnitPricePerHour(lynceus.Config) (float64, error) { panic(e.p) }

// twinTrials runs the campaign of req uninterrupted and in-process for at
// most steps steps (until done when steps < 0) and returns its trials.
func twinTrials(t *testing.T, req createRequest, steps int) []lynceus.Trial {
	t.Helper()
	env, err := BuildEnv(req.Env)
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := lynceus.StartTunerShared(req.Tuner.TunerConfig(), env, req.Options.Options(), lynceus.NewShareGroup())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; steps < 0 || i < steps; i++ {
		done, err := tuner.Step()
		if err != nil {
			t.Fatalf("twin of %s, step %d: %v", req.ID, i, err)
		}
		if done {
			break
		}
	}
	return tuner.Trials()
}

// TestServerRescanRestoresEveryCampaign restarts a server on a state dir
// holding a campaign in every state a rescan meets: never stepped, mid-flight
// on a lookup table, mid-flight on servesim (whose snapshot carries
// environment state), finished, with a truncated snapshot, and with an
// environment the factory refuses to build. The rescan resumes them on
// several goroutines; the factory must still be called in ID order, and what
// the rescan reports must be what resuming them one after another in ID
// order reported.
func TestServerRescanRestoresEveryCampaign(t *testing.T) {
	dir := t.TempDir()
	type entry struct {
		req   createRequest
		steps int // steps before the restart; -1 runs to completion
	}
	refused := fastSpec(t, "k-refused", 11)
	refused.Env.Seed = 43 // the seed the second server's factory refuses
	// Listed in ID order, the order of the statuses compared below.
	entries := []entry{
		{fastSpec(t, "a-fresh-tf", 1), 0},
		{servesimSpec(t, "b-fresh-sim", 2), 0},
		{fastSpec(t, "c-mid-tf", 3), 3},
		{fastSpec(t, "d-mid-tf", 4), 7},
		{fastSpec(t, "e-mid-tf", 5), 8},
		{servesimSpec(t, "f-mid-sim", 6), 6},
		{servesimSpec(t, "g-mid-sim", 7), 7},
		{servesimSpec(t, "h-mid-sim", 8), 9},
		{fastSpec(t, "i-done-tf", 9), -1},
		{fastSpec(t, "j-truncated", 10), 6},
		{refused, 6},
		{fastSpec(t, "l-mid-tf", 12), 1},
	}
	// Distinct environment seeds let the factory's call order be checked.
	var wantBuilt []EnvSpec
	for i := range entries {
		if env := &entries[i].req.Env; env.Kind == "tensorflow" && env.Seed != 43 {
			env.Seed = int64(100 + i)
		}
		wantBuilt = append(wantBuilt, entries[i].req.Env)
	}

	// First server: admit and advance every campaign, record the statuses,
	// stop.
	srvA, clientA := newTestServer(t, Config{StateDir: dir})
	for _, e := range entries {
		clientA.mustJSON("POST", "/campaigns", e.req, http.StatusCreated, nil)
		switch {
		case e.steps < 0:
			clientA.stepUntilDone(e.req.ID)
		case e.steps > 0:
			clientA.mustJSON("POST", "/campaigns/"+e.req.ID+"/step", stepRequest{Steps: e.steps}, http.StatusOK, nil)
		}
	}
	var before []CampaignStatus
	clientA.mustJSON("GET", "/campaigns", nil, http.StatusOK, &before)
	srvA.Close()
	sort.Slice(before, func(i, j int) bool { return before[i].ID < before[j].ID })
	for i, st := range before {
		if finished := entries[i].steps < 0; st.Done != finished || finished == (st.State == StateActive) {
			t.Fatalf("campaign %s before the restart = %+v, want done=%v", st.ID, st, finished)
		}
	}
	if snap, _, err := srvA.store.Snapshot("f-mid-sim"); err != nil || !strings.Contains(string(snap), `"env_state"`) {
		t.Fatalf("servesim snapshot carries no environment state (err %v)", err)
	}

	snapPath := filepath.Join(dir, "j-truncated", snapshotFile)
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, snap[:len(snap)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Second server on the same directory.
	errRefused := errors.New("factory refuses seed 43")
	var logMu sync.Mutex
	var logs []string
	var built []EnvSpec // only New's goroutine calls the factory during the rescan
	srvB, clientB := newTestServer(t, Config{
		StateDir: dir,
		EnvFactory: func(spec EnvSpec) (lynceus.Environment, error) {
			built = append(built, spec)
			if spec.Seed == 43 {
				return nil, errRefused
			}
			return BuildEnv(spec)
		},
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	logMu.Lock()
	rescanLogs := append([]string(nil), logs...)
	logMu.Unlock()
	if fmt.Sprint(built) != fmt.Sprint(wantBuilt) {
		t.Errorf("factory called for\n%v\nwant, in ID order,\n%v", built, wantBuilt)
	}

	quarantined := map[string]string{
		"j-truncated": "resume failed: resuming snapshot: core: decoding snapshot: unexpected end of JSON input",
		"k-refused":   "resume failed: building environment: factory refuses seed 43",
	}
	var after []CampaignStatus
	clientB.mustJSON("GET", "/campaigns", nil, http.StatusOK, &after)
	if len(after) != len(before) {
		t.Fatalf("%d campaigns after the restart, want %d", len(after), len(before))
	}
	sort.Slice(after, func(i, j int) bool { return after[i].ID < after[j].ID })
	var wantLogs []string
	for i, want := range before {
		// Steps counts the steps this server process served.
		want.Steps = 0
		if reason, ok := quarantined[want.ID]; ok {
			want = CampaignStatus{
				ID:               want.ID,
				State:            StateQuarantined,
				RemainingBudget:  entries[i].req.Options.Budget,
				QuarantineReason: reason,
			}
			wantLogs = append(wantLogs, fmt.Sprintf("serve: campaign %s failed to resume: %s", want.ID, reason[len("resume failed: "):]))
		}
		wantLogs = append(wantLogs, fmt.Sprintf("serve: campaign %s rescanned (state %s, %d trials)", want.ID, want.State, want.Trials))
		if after[i] != want {
			t.Errorf("status after the restart\n got %+v\nwant %+v", after[i], want)
		}
	}
	if got, want := srvB.Stats().ResumedOnStart, uint64(len(entries)-len(quarantined)); got != want {
		t.Errorf("ResumedOnStart = %d, want %d", got, want)
	}
	if fmt.Sprint(rescanLogs) != fmt.Sprint(wantLogs) {
		t.Errorf("rescan logged\n%q\nwant\n%q", rescanLogs, wantLogs)
	}

	// A panic while resuming a campaign is re-raised on New's goroutine.
	errBoom := errors.New("space panics")
	func() {
		defer func() {
			if p := recover(); p != errBoom {
				t.Errorf("New panicked with %v, want %v", p, errBoom)
			}
		}()
		srv, err := New(Config{StateDir: dir, EnvFactory: func(EnvSpec) (lynceus.Environment, error) {
			return spacePanicEnv{errBoom}, nil
		}})
		if err == nil {
			srv.Close()
		}
	}()

	// One further step per campaign continues its uninterrupted twin.
	for _, e := range entries {
		id := e.req.ID
		if _, ok := quarantined[id]; ok {
			clientB.mustJSON("POST", "/campaigns/"+id+"/step", nil, http.StatusConflict, nil)
			continue
		}
		clientB.mustJSON("POST", "/campaigns/"+id+"/step", nil, http.StatusOK, nil)
		c, _ := srvB.lookup(id)
		c.stepMu.Lock()
		got := c.tuner.Trials()
		c.stepMu.Unlock()
		steps := e.steps + 1
		if e.steps < 0 {
			steps = -1
		}
		want := twinTrials(t, e.req, steps)
		if len(got) != len(want) {
			t.Fatalf("%s: %d trials after the restart and one step, want %d", id, len(got), len(want))
		}
		for i := range got {
			if got[i].Config.ID != want[i].Config.ID || math.Float64bits(got[i].Cost) != math.Float64bits(want[i].Cost) {
				t.Fatalf("%s: trial %d = config %d cost %x, want config %d cost %x", id, i,
					got[i].Config.ID, math.Float64bits(got[i].Cost), want[i].Config.ID, math.Float64bits(want[i].Cost))
			}
		}
	}
}

// rescanState is a state dir held in memory.
type rescanState struct {
	specs     []CampaignSpec
	snapshots [][]byte
}

// rescanFixture is the state of BenchmarkServerRescan, built once per
// process: 24 Tensorflow LA=2 campaigns with distinct option seeds, each
// stepped through its bootstrap plus two planned trials, as in lynbench's
// restart workload.
var rescanFixture = sync.OnceValues(func() (*rescanState, error) {
	job, err := lynceus.SyntheticTensorflowJob("cnn", 42)
	if err != nil {
		return nil, err
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		return nil, err
	}
	const campaigns, bootstrap = 24, 12
	st := &rescanState{}
	for i := range campaigns {
		spec := CampaignSpec{
			ID:    fmt.Sprintf("c%06d", i),
			Env:   EnvSpec{Kind: "tensorflow", Name: "cnn", Seed: 42},
			Tuner: TunerSpec{Lookahead: 2, SpeculativeRefit: "incremental"},
			Options: OptionsSpec{
				Budget:            4 * bootstrap * job.MeanCost(),
				MaxRuntimeSeconds: tmax,
				BootstrapSize:     bootstrap,
				Seed:              int64(1000 + i),
			},
		}
		env, err := BuildEnv(spec.Env)
		if err != nil {
			return nil, err
		}
		tuner, err := lynceus.StartTunerShared(spec.Tuner.TunerConfig(), env, spec.Options.Options(), lynceus.NewShareGroup())
		if err != nil {
			return nil, err
		}
		for range bootstrap + 2 {
			if _, err := tuner.Step(); err != nil {
				return nil, err
			}
		}
		snap, err := tuner.Snapshot()
		if err != nil {
			return nil, err
		}
		st.specs = append(st.specs, spec)
		st.snapshots = append(st.snapshots, snap)
	}
	return st, nil
})

// BenchmarkServerRescan measures a restart: New on a state dir of 24
// mid-flight Tensorflow LA=2 campaigns (rebuild every environment, resume
// every snapshot), then Close. ns/campaign is one campaign's share of it.
func BenchmarkServerRescan(b *testing.B) {
	st, err := rescanFixture()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i, spec := range st.specs {
		if err := store.PutSpec(spec); err != nil {
			b.Fatal(err)
		}
		if err := store.PutSnapshot(spec.ID, st.snapshots[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		srv, err := New(Config{StateDir: dir, Rate: -1})
		if err != nil {
			b.Fatal(err)
		}
		if got := srv.Stats().ResumedOnStart; got != uint64(len(st.specs)) {
			b.Fatalf("resumed %d campaigns, want %d", got, len(st.specs))
		}
		srv.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(st.specs)), "ns/campaign")
}
