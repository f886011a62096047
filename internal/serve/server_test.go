package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	lynceus "repro"
)

// fastSpec is the cheap real campaign of the server tests: the synthetic
// Tensorflow cnn job with a small budget, finishing in a couple dozen trials.
func fastSpec(t *testing.T, id string, seed int64) createRequest {
	t.Helper()
	job, err := lynceus.SyntheticTensorflowJob("cnn", 42)
	if err != nil {
		t.Fatalf("SyntheticTensorflowJob: %v", err)
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		t.Fatalf("RuntimeForFeasibleFraction: %v", err)
	}
	return createRequest{
		ID:    id,
		Env:   EnvSpec{Kind: "tensorflow", Name: "cnn", Seed: 42},
		Tuner: TunerSpec{Lookahead: 1, Workers: 1},
		Options: OptionsSpec{
			Budget:            6 * job.MeanCost(),
			MaxRuntimeSeconds: tmax,
			BootstrapSize:     5,
			Seed:              seed,
		},
	}
}

// baselineRun executes the same campaign uninterrupted and in-process — the
// reference every robustness scenario must match bitwise.
func baselineRun(t *testing.T, req createRequest) lynceus.Result {
	t.Helper()
	env, err := BuildEnv(req.Env)
	if err != nil {
		t.Fatalf("BuildEnv: %v", err)
	}
	tuner, err := lynceus.StartTunerShared(req.Tuner.TunerConfig(), env, req.Options.Options(), lynceus.NewShareGroup())
	if err != nil {
		t.Fatalf("StartTunerShared: %v", err)
	}
	res, err := tuner.Run()
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	return res
}

func assertSameTrials(t *testing.T, label string, got, want lynceus.Result) {
	t.Helper()
	if got.Recommended.Config.ID != want.Recommended.Config.ID {
		t.Fatalf("%s: recommended config %d, want %d", label, got.Recommended.Config.ID, want.Recommended.Config.ID)
	}
	if len(got.Trials) != len(want.Trials) {
		t.Fatalf("%s: %d trials, want %d", label, len(got.Trials), len(want.Trials))
	}
	for i := range got.Trials {
		if got.Trials[i].Config.ID != want.Trials[i].Config.ID ||
			math.Float64bits(got.Trials[i].Cost) != math.Float64bits(want.Trials[i].Cost) {
			t.Fatalf("%s: trial %d = config %d cost %x, want config %d cost %x", label, i,
				got.Trials[i].Config.ID, math.Float64bits(got.Trials[i].Cost),
				want.Trials[i].Config.ID, math.Float64bits(want.Trials[i].Cost))
		}
	}
}

// testClient wraps the HTTP plumbing of the tests.
type testClient struct {
	t    *testing.T
	base string
}

func (c *testClient) do(method, path string, body any) (int, []byte, http.Header) {
	c.t.Helper()
	var buf io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		buf = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, buf)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

func (c *testClient) mustJSON(method, path string, body any, wantCode int, out any) {
	c.t.Helper()
	code, data, _ := c.do(method, path, body)
	if code != wantCode {
		c.t.Fatalf("%s %s = %d, want %d (body %s)", method, path, code, wantCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			c.t.Fatalf("%s %s: decoding %q: %v", method, path, data, err)
		}
	}
}

// stepUntilDone drives a campaign to completion over the API.
func (c *testClient) stepUntilDone(id string) CampaignStatus {
	c.t.Helper()
	for i := 0; i < 200; i++ {
		var st stepResponse
		c.mustJSON("POST", "/campaigns/"+id+"/step", stepRequest{Steps: 5}, http.StatusOK, &st)
		if st.Done {
			return st.CampaignStatus
		}
	}
	c.t.Fatalf("campaign %s did not finish within 1000 steps", id)
	return CampaignStatus{}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *testClient) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	if cfg.Rate == 0 {
		cfg.Rate = -1 // most tests want no rate limiting
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, &testClient{t: t, base: hs.URL}
}

func TestServerLifecycle(t *testing.T) {
	_, client := newTestServer(t, Config{})
	req := fastSpec(t, "life", 3)

	var created CampaignStatus
	client.mustJSON("POST", "/campaigns", req, http.StatusCreated, &created)
	if created.ID != "life" || created.State != StateActive {
		t.Fatalf("created = %+v", created)
	}
	// Duplicate IDs conflict.
	client.mustJSON("POST", "/campaigns", req, http.StatusConflict, nil)

	var list []CampaignStatus
	client.mustJSON("GET", "/campaigns", nil, http.StatusOK, &list)
	if len(list) != 1 || list[0].ID != "life" {
		t.Fatalf("list = %+v", list)
	}

	final := client.stepUntilDone("life")
	if !final.Done || final.State != StateDone || final.Trials == 0 {
		t.Fatalf("final status = %+v", final)
	}
	// Stepping a done campaign is an idempotent no-op.
	var again stepResponse
	client.mustJSON("POST", "/campaigns/life/step", nil, http.StatusOK, &again)
	if again.Trials != final.Trials {
		t.Fatalf("stepping a done campaign changed trials: %d -> %d", final.Trials, again.Trials)
	}

	var got lynceus.Result
	client.mustJSON("GET", "/campaigns/life/recommendation", nil, http.StatusOK, &got)
	assertSameTrials(t, "served vs baseline", got, baselineRun(t, req))

	client.mustJSON("DELETE", "/campaigns/life", nil, http.StatusNoContent, nil)
	client.mustJSON("GET", "/campaigns/life", nil, http.StatusNotFound, nil)
	client.mustJSON("GET", "/campaigns/unknown", nil, http.StatusNotFound, nil)
}

// TestServerCreateFailureCodes separates the two ways a well-formed create
// can fail after admission: a spec no tuner can be built from is the client's
// fault (400), a spec that cannot be made durable is the server's (500).
// Neither leaves a campaign behind.
func TestServerCreateFailureCodes(t *testing.T) {
	srv, client := newTestServer(t, Config{})

	unbuildable := fastSpec(t, "unbuildable", 3)
	unbuildable.Env.Name = "no-such-job"
	client.mustJSON("POST", "/campaigns", unbuildable, http.StatusBadRequest, nil)
	unknownKind := fastSpec(t, "unknown-kind", 3)
	unknownKind.Env.Kind = "cherrypick"
	if _, err := BuildEnv(unknownKind.Env); err == nil || !strings.Contains(err.Error(), "want one of [scout servesim tensorflow]") {
		t.Fatalf("unknown kind: BuildEnv error = %v, want the sorted kind list", err)
	}
	client.mustJSON("POST", "/campaigns", unknownKind, http.StatusBadRequest, nil)

	// A directory squatting on the spec file's name makes the store's rename
	// fail whatever the process's privileges (tests may run as root).
	undurable := fastSpec(t, "undurable", 3)
	if err := os.MkdirAll(filepath.Join(srv.cfg.StateDir, "undurable", specFile), 0o755); err != nil {
		t.Fatal(err)
	}
	client.mustJSON("POST", "/campaigns", undurable, http.StatusInternalServerError, nil)

	for _, id := range []string{"unbuildable", "unknown-kind", "undurable"} {
		client.mustJSON("GET", "/campaigns/"+id, nil, http.StatusNotFound, nil)
	}
}

// flakyEnv fails every Run while *fail is set — the step-error injection that
// drives the server's rollback path.
type flakyEnv struct {
	inner lynceus.Environment
	fail  *atomic.Bool
}

func (f *flakyEnv) Space() *lynceus.Space { return f.inner.Space() }
func (f *flakyEnv) Run(cfg lynceus.Config) (lynceus.Trial, error) {
	if f.fail.Load() {
		return lynceus.Trial{}, errors.New("injected run failure")
	}
	return f.inner.Run(cfg)
}
func (f *flakyEnv) UnitPricePerHour(cfg lynceus.Config) (float64, error) {
	return f.inner.UnitPricePerHour(cfg)
}

// TestServerRetainsNoDroppedEnvironment is the retention ratchet of the
// server: every environment the EnvFactory hands out — one per created
// campaign, one more per rollback — must become collectable once its campaign
// is deleted or rebuilt. The server-wide share group outlives them all and
// must keep none alive. As in core's TestShareGroupRetainsNoDroppedCampaign
// the bound is 90 %: a workspace shelved in the group's pool may still alias
// its last holder's space.
func TestServerRetainsNoDroppedEnvironment(t *testing.T) {
	var built, finalized atomic.Int64
	var fail atomic.Bool
	srv, client := newTestServer(t, Config{
		Workers: 1,
		EnvFactory: func(spec EnvSpec) (lynceus.Environment, error) {
			inner, err := BuildEnv(spec)
			if err != nil {
				return nil, err
			}
			env := &flakyEnv{inner: inner, fail: &fail}
			built.Add(1)
			runtime.SetFinalizer(env, func(*flakyEnv) { finalized.Add(1) })
			return env, nil
		},
	})

	// create → step past two decisions (five bootstrap probes first) → delete.
	const dropped = 50
	for i := 0; i < dropped; i++ {
		id := fmt.Sprintf("drop-%d", i)
		client.mustJSON("POST", "/campaigns", fastSpec(t, id, int64(i%4)), http.StatusCreated, nil)
		client.mustJSON("POST", "/campaigns/"+id+"/step", stepRequest{Steps: 7}, http.StatusOK, nil)
		client.mustJSON("DELETE", "/campaigns/"+id, nil, http.StatusNoContent, nil)
	}

	// One campaign rolled back three times: each rollback rebuilds it on a
	// fresh environment and drops the previous one.
	client.mustJSON("POST", "/campaigns", fastSpec(t, "rolled", 9), http.StatusCreated, nil)
	client.mustJSON("POST", "/campaigns/rolled/step", stepRequest{Steps: 6}, http.StatusOK, nil)
	fail.Store(true)
	for i := 0; i < 3; i++ {
		client.mustJSON("POST", "/campaigns/rolled/step", nil, http.StatusInternalServerError, nil)
	}
	fail.Store(false)
	client.mustJSON("POST", "/campaigns/rolled/step", nil, http.StatusOK, nil)
	if got := srv.Stats().Rollbacks; got != 3 {
		t.Fatalf("Rollbacks = %d, want 3", got)
	}

	// Everything built is garbage except the live campaign's current
	// environment.
	garbage := built.Load() - 1
	if want := int64(dropped + 3); garbage != want {
		t.Fatalf("%d environments dropped, want %d", garbage, want)
	}
	// Two collections free them (the first queues the finalizers); the loop
	// only gives the finalizer goroutine time to run on a loaded machine.
	for deadline := time.Now().Add(5 * time.Second); finalized.Load() < garbage*9/10 && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := finalized.Load(); got < garbage*9/10 {
		t.Fatalf("%d of %d dropped environments were collected, want at least %d: the server retains them",
			got, garbage, garbage*9/10)
	}
	runtime.KeepAlive(srv)
}

func TestServerRestartResumesBitwise(t *testing.T) {
	dir := t.TempDir()
	reqs := []createRequest{fastSpec(t, "r1", 11), fastSpec(t, "r2", 12)}

	// First server: admit both campaigns, advance them partway, stop without
	// any warning beyond what every completed step already persisted.
	srvA, clientA := newTestServer(t, Config{StateDir: dir})
	for _, req := range reqs {
		clientA.mustJSON("POST", "/campaigns", req, http.StatusCreated, nil)
		var st stepResponse
		clientA.mustJSON("POST", "/campaigns/"+req.ID+"/step", stepRequest{Steps: 4}, http.StatusOK, &st)
		if st.Trials == 0 {
			t.Fatalf("campaign %s recorded no trials before the restart", req.ID)
		}
	}
	srvA.Close()

	// Second server on the same state directory: both campaigns resume and
	// finish exactly as if never interrupted.
	srvB, clientB := newTestServer(t, Config{StateDir: dir})
	if got := srvB.Stats().ResumedOnStart; got != 2 {
		t.Fatalf("ResumedOnStart = %d, want 2", got)
	}
	for _, req := range reqs {
		var st CampaignStatus
		clientB.mustJSON("GET", "/campaigns/"+req.ID, nil, http.StatusOK, &st)
		if st.State != StateActive || st.Trials == 0 {
			t.Fatalf("campaign %s after restart = %+v", req.ID, st)
		}
		clientB.stepUntilDone(req.ID)
		var got lynceus.Result
		clientB.mustJSON("GET", "/campaigns/"+req.ID+"/recommendation", nil, http.StatusOK, &got)
		assertSameTrials(t, "resumed "+req.ID, got, baselineRun(t, req))
	}
}

// TestServerGeneratedIDs checks the IDs the server assigns to campaigns
// created without one: sequential, skipping an ID a client already took, and
// never colliding with a campaign persisted before a restart.
func TestServerGeneratedIDs(t *testing.T) {
	dir := t.TempDir()
	create := func(client *testClient, id string) string {
		t.Helper()
		var st CampaignStatus
		client.mustJSON("POST", "/campaigns", fastSpec(t, id, 1), http.StatusCreated, &st)
		return st.ID
	}

	srvA, clientA := newTestServer(t, Config{StateDir: dir})
	for _, want := range []string{"c-000001", "c-000002"} {
		if got := create(clientA, ""); got != want {
			t.Fatalf("generated ID = %q, want %q", got, want)
		}
	}
	create(clientA, "c-000003")
	if got := create(clientA, ""); got != "c-000004" {
		t.Fatalf("generated ID after a client took c-000003 = %q, want c-000004", got)
	}
	srvA.Close()

	// A restarted server counts from scratch; the persisted campaigns it
	// rescanned must still be skipped.
	_, clientB := newTestServer(t, Config{StateDir: dir})
	persisted := map[string]bool{"c-000001": true, "c-000002": true, "c-000003": true, "c-000004": true}
	var list []CampaignStatus
	clientB.mustJSON("GET", "/campaigns", nil, http.StatusOK, &list)
	if len(list) != len(persisted) {
		t.Fatalf("restarted server lists %d campaigns, want %d", len(list), len(persisted))
	}
	got := create(clientB, "")
	if persisted[got] || got != "c-000005" {
		t.Fatalf("generated ID after restart = %q, want c-000005 (persisted: c-000001..c-000004)", got)
	}
}

// gateEnv blocks every Run until released, signalling entry — the tests'
// handle on "a step is executing right now".
type gateEnv struct {
	inner   lynceus.Environment
	entered chan struct{}
	release chan struct{}
}

func newGateEnv(t *testing.T) *gateEnv {
	t.Helper()
	env, err := BuildEnv(EnvSpec{Kind: "tensorflow", Name: "cnn", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return &gateEnv{inner: env, entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (g *gateEnv) Space() *lynceus.Space { return g.inner.Space() }
func (g *gateEnv) Run(cfg lynceus.Config) (lynceus.Trial, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
	return g.inner.Run(cfg)
}
func (g *gateEnv) UnitPricePerHour(cfg lynceus.Config) (float64, error) {
	return g.inner.UnitPricePerHour(cfg)
}

// factoryFor overrides construction of selected env names, delegating the
// rest to BuildEnv.
func factoryFor(overrides map[string]lynceus.Environment) func(EnvSpec) (lynceus.Environment, error) {
	return func(spec EnvSpec) (lynceus.Environment, error) {
		if env, ok := overrides[spec.Name]; ok {
			return env, nil
		}
		return BuildEnv(spec)
	}
}

func TestServerOverloadSheds(t *testing.T) {
	gate := newGateEnv(t)
	_, client := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		EnvFactory: factoryFor(map[string]lynceus.Environment{"gate": gate}),
	})

	slow := fastSpec(t, "slow", 7)
	slow.Env.Name = "gate"
	fast := fastSpec(t, "fast", 8)
	client.mustJSON("POST", "/campaigns", slow, http.StatusCreated, nil)
	client.mustJSON("POST", "/campaigns", fast, http.StatusCreated, nil)

	// Occupy the only worker with a gated step, then fill the queue.
	type reply struct {
		code int
		body []byte
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, body, _ := client.do("POST", "/campaigns/slow/step", nil)
			replies <- reply{code, body}
		}()
		if i == 0 {
			select {
			case <-gate.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("gated step never started")
			}
		} else {
			// The second job has no execution signal; wait until it shows
			// up in the queue.
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				var st Stats
				client.mustJSON("GET", "/stats", nil, http.StatusOK, &st)
				if st.QueueLen >= 1 {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}

	// Worker busy + queue full: the next step request is shed, not queued.
	code, body, hdr := client.do("POST", "/campaigns/fast/step", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overflow request = %d (body %s), want 503", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("overflow 503 carried no Retry-After header")
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.RetryAfter <= 0 {
		t.Fatalf("overflow body = %s, want retry_after_seconds > 0", body)
	}

	// Release the gate; the in-flight step completes, the queued duplicate
	// is answered (409 busy or 200, depending on interleaving), and the
	// shed campaign is untouched: stepping it now reproduces the isolated
	// run bitwise.
	close(gate.release)
	for i := 0; i < 2; i++ {
		select {
		case r := <-replies:
			if r.code != http.StatusOK && r.code != http.StatusConflict {
				t.Fatalf("slow-step reply = %d (body %s)", r.code, r.body)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("slow-step replies never arrived")
		}
	}
	client.stepUntilDone("fast")
	var got lynceus.Result
	client.mustJSON("GET", "/campaigns/fast/recommendation", nil, http.StatusOK, &got)
	assertSameTrials(t, "shed campaign", got, baselineRun(t, fast))
}

// TestServerRateLimit runs on the real clock at a rate no refill can reach
// during the test (one token per 1000 s), so every verdict is fixed;
// TestVirtualRateLimitRefill checks the refill instant on a fake clock.
func TestServerRateLimit(t *testing.T) {
	_, client := newTestServer(t, Config{Rate: 0.001, Burst: 1})

	post := func(id, clientID string) (int, http.Header) {
		data, _ := json.Marshal(fastSpec(t, id, 1))
		req, err := http.NewRequest("POST", client.base+"/campaigns", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client-ID", clientID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header
	}

	if code, _ := post("a1", "alice"); code != http.StatusCreated {
		t.Fatalf("alice's first create = %d", code)
	}
	code, hdr := post("a2", "alice")
	if code != http.StatusTooManyRequests {
		t.Fatalf("alice's second create = %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra != "1000" {
		t.Fatalf("Retry-After = %q, want \"1000\" (empty bucket at 0.001 tokens/s)", ra)
	}
	// Other clients have their own bucket.
	if code, _ := post("b1", "bob"); code != http.StatusCreated {
		t.Fatalf("bob's create = %d, want 201 despite alice's empty bucket", code)
	}
}

// panicEnv panics on every Run — the misbehaving-campaign injection.
type panicEnv struct{ inner lynceus.Environment }

func (p *panicEnv) Space() *lynceus.Space { return p.inner.Space() }
func (p *panicEnv) Run(cfg lynceus.Config) (lynceus.Trial, error) {
	panic("injected environment panic")
}
func (p *panicEnv) UnitPricePerHour(cfg lynceus.Config) (float64, error) {
	return p.inner.UnitPricePerHour(cfg)
}

func TestServerPanicIsolation(t *testing.T) {
	inner, err := BuildEnv(EnvSpec{Kind: "tensorflow", Name: "cnn", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	srv, client := newTestServer(t, Config{
		EnvFactory: factoryFor(map[string]lynceus.Environment{"boom": &panicEnv{inner: inner}}),
	})

	bad := fastSpec(t, "bad", 5)
	bad.Env.Name = "boom"
	good := fastSpec(t, "good", 6)
	client.mustJSON("POST", "/campaigns", bad, http.StatusCreated, nil)
	client.mustJSON("POST", "/campaigns", good, http.StatusCreated, nil)

	// The panicking step answers 500 and quarantines only its campaign.
	code, body, _ := client.do("POST", "/campaigns/bad/step", nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking step = %d (body %s), want 500", code, body)
	}
	var st CampaignStatus
	client.mustJSON("GET", "/campaigns/bad", nil, http.StatusOK, &st)
	if st.State != StateQuarantined || !strings.Contains(st.QuarantineReason, "panic") {
		t.Fatalf("panicked campaign status = %+v", st)
	}
	// Further steps are refused, not retried.
	client.mustJSON("POST", "/campaigns/bad/step", nil, http.StatusConflict, nil)
	if got := srv.Stats().Panics; got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}

	// The sibling campaign — same server, same ShareGroup — is unharmed.
	client.stepUntilDone("good")
	var got lynceus.Result
	client.mustJSON("GET", "/campaigns/good/recommendation", nil, http.StatusOK, &got)
	assertSameTrials(t, "sibling of panicked campaign", got, baselineRun(t, good))
}

// stuckEnv ignores everything until released — the stuck-in-foreign-code
// injection the step deadline's grace period exists for.
type stuckEnv struct {
	inner   lynceus.Environment
	release chan struct{}
}

func (s *stuckEnv) Space() *lynceus.Space { return s.inner.Space() }
func (s *stuckEnv) Run(cfg lynceus.Config) (lynceus.Trial, error) {
	<-s.release
	return s.inner.Run(cfg)
}
func (s *stuckEnv) UnitPricePerHour(cfg lynceus.Config) (float64, error) {
	return s.inner.UnitPricePerHour(cfg)
}

// sleepEnv delays every Run but otherwise behaves — slow enough for the
// step deadline to expire, cooperative enough to stop at the next trial
// boundary.
type sleepEnv struct {
	inner lynceus.Environment
	delay time.Duration
}

func (s *sleepEnv) Space() *lynceus.Space { return s.inner.Space() }
func (s *sleepEnv) Run(cfg lynceus.Config) (lynceus.Trial, error) {
	time.Sleep(s.delay)
	return s.inner.Run(cfg)
}
func (s *sleepEnv) UnitPricePerHour(cfg lynceus.Config) (float64, error) {
	return s.inner.UnitPricePerHour(cfg)
}

// TestServerWatchdogQuarantinesStuck runs the containment ladder on the real
// clock, so the stuck step costs the full 3 s grace;
// TestVirtualStuckStepLadder checks both rungs at exact instants.
func TestServerWatchdogQuarantinesStuck(t *testing.T) {
	inner, err := BuildEnv(EnvSpec{Kind: "tensorflow", Name: "cnn", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	stuck := &stuckEnv{inner: inner, release: make(chan struct{})}
	defer close(stuck.release) // let the zombie goroutine exit after the test

	srv, client := newTestServer(t, Config{
		StepDeadline: 30 * time.Millisecond,
		EnvFactory: factoryFor(map[string]lynceus.Environment{
			"tar":  stuck,
			"slow": &sleepEnv{inner: inner, delay: 10 * time.Millisecond},
		}),
	})

	req := fastSpec(t, "wedged", 9)
	req.Env.Name = "tar"
	client.mustJSON("POST", "/campaigns", req, http.StatusCreated, nil)

	code, body, _ := client.do("POST", "/campaigns/wedged/step", nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("stuck step = %d (body %s), want 504", code, body)
	}
	var st CampaignStatus
	client.mustJSON("GET", "/campaigns/wedged", nil, http.StatusOK, &st)
	if st.State != StateQuarantined || !strings.Contains(st.QuarantineReason, "stuck") {
		t.Fatalf("stuck campaign status = %+v", st)
	}
	stats := srv.Stats()
	if stats.StuckCampaigns != 1 || stats.WatchdogCancels == 0 {
		t.Fatalf("stats = %+v, want 1 stuck campaign and >0 watchdog cancels", stats)
	}

	// The server itself is fine, and an overrunning-but-cooperative step is
	// the *other* watchdog outcome: cancelled at a trial boundary, rolled
	// back to its last snapshot, answered 504 — and still active, not
	// quarantined.
	slow := fastSpec(t, "after", 10)
	slow.Env.Name = "slow"
	client.mustJSON("POST", "/campaigns", slow, http.StatusCreated, nil)
	code, body, _ = client.do("POST", "/campaigns/after/step", stepRequest{Steps: 10_000})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("overrunning step = %d (body %s), want 504", code, body)
	}
	client.mustJSON("GET", "/campaigns/after", nil, http.StatusOK, &st)
	if st.State != StateActive {
		t.Fatalf("cooperatively cancelled campaign = %+v, want still active", st)
	}
	if !strings.Contains(st.LastError, "campaign cancelled") {
		t.Fatalf("LastError = %q, want the cancellation sentinel", st.LastError)
	}
	if got := srv.Stats().Rollbacks; got == 0 {
		t.Fatal("no rollback recorded for the cancelled step")
	}
}

func TestServerStepDeadlineDisabled(t *testing.T) {
	inner, err := BuildEnv(EnvSpec{Kind: "tensorflow", Name: "cnn", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	srv, client := newTestServer(t, Config{
		StepDeadline: -1,
		EnvFactory: factoryFor(map[string]lynceus.Environment{
			"slow": &sleepEnv{inner: inner, delay: 10 * time.Millisecond},
		}),
	})
	req := fastSpec(t, "untimed", 11)
	req.Env.Name = "slow"
	client.mustJSON("POST", "/campaigns", req, http.StatusCreated, nil)
	for i := 0; i < 3; i++ {
		var st stepResponse
		client.mustJSON("POST", "/campaigns/untimed/step", nil, http.StatusOK, &st)
		if st.Stepped != 1 {
			t.Fatalf("step %d stepped %d, want 1", i, st.Stepped)
		}
	}
	if st := srv.Stats(); st.WatchdogCancels != 0 || st.WatchdogArmed != 0 {
		t.Fatalf("stats = %+v, want no deadline cancels and nothing armed", st)
	}
}

func TestServerWatchdogArmedGauge(t *testing.T) {
	gate := newGateEnv(t)
	srv, client := newTestServer(t, Config{
		EnvFactory: factoryFor(map[string]lynceus.Environment{"gate": gate}),
	})
	req := fastSpec(t, "g1", 15)
	req.Env.Name = "gate"
	client.mustJSON("POST", "/campaigns", req, http.StatusCreated, nil)

	stepDone := make(chan reply2, 1)
	go func() {
		code, body, _ := client.do("POST", "/campaigns/g1/step", nil)
		stepDone <- reply2{code, body}
	}()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("gated step never started")
	}
	if got := srv.Stats().WatchdogArmed; got != 1 {
		t.Fatalf("WatchdogArmed during a step = %d, want 1", got)
	}
	close(gate.release)
	if r := <-stepDone; r.code != http.StatusOK {
		t.Fatalf("gated step = %d (body %s), want 200", r.code, r.body)
	}
	if got := srv.Stats().WatchdogArmed; got != 0 {
		t.Fatalf("WatchdogArmed after the step = %d, want 0", got)
	}
}

// TestServerSteppedCountsOwnSteps pins that a step reply counts only its own
// request's steps, even when another request on the same campaign ran in
// between being admitted and being executed.
func TestServerSteppedCountsOwnSteps(t *testing.T) {
	gate := newGateEnv(t)
	srv, client := newTestServer(t, Config{
		Workers:    1,
		EnvFactory: factoryFor(map[string]lynceus.Environment{"gate": gate}),
	})
	req := fastSpec(t, "s1", 17)
	req.Env.Name = "gate"
	client.mustJSON("POST", "/campaigns", req, http.StatusCreated, nil)

	replies := make(chan reply2, 2)
	step := func() {
		code, body, _ := client.do("POST", "/campaigns/s1/step", nil)
		replies <- reply2{code, body}
	}
	go step()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("gated step never started")
	}
	// The second request is admitted while the first is still stepping.
	go step()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().StepRequests < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second step request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	for i := 0; i < 2; i++ {
		r := <-replies
		var st stepResponse
		if err := json.Unmarshal(r.body, &st); r.code != http.StatusOK || err != nil {
			t.Fatalf("step reply = %d (body %s), want 200", r.code, r.body)
		}
		if st.Stepped != 1 {
			t.Fatalf("step reply says stepped %d (body %s), want 1", st.Stepped, r.body)
		}
	}
}

func TestServerDrain(t *testing.T) {
	gate := newGateEnv(t)
	srv, client := newTestServer(t, Config{
		Workers:    1,
		EnvFactory: factoryFor(map[string]lynceus.Environment{"gate": gate}),
	})

	req := fastSpec(t, "d1", 13)
	req.Env.Name = "gate"
	client.mustJSON("POST", "/campaigns", req, http.StatusCreated, nil)

	stepDone := make(chan reply2, 1)
	go func() {
		code, body, _ := client.do("POST", "/campaigns/d1/step", nil)
		stepDone <- reply2{code, body}
	}()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("gated step never started")
	}

	// Drain with an in-flight step: it must wait, and time out when asked to.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("Drain returned nil with a step still in flight")
	}

	// Draining sheds all new work with Retry-After, while health stays up
	// and readiness reports the drain.
	code, _, hdr := client.do("POST", "/campaigns/d1/step", nil)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("step while draining = %d (Retry-After %q), want 503 with a hint", code, hdr.Get("Retry-After"))
	}
	if code, _, _ := client.do("POST", "/campaigns", fastSpec(t, "d2", 14)); code != http.StatusServiceUnavailable {
		t.Fatalf("create while draining = %d, want 503", code)
	}
	client.mustJSON("GET", "/healthz", nil, http.StatusOK, nil)
	client.mustJSON("GET", "/readyz", nil, http.StatusServiceUnavailable, nil)

	// Release the gate: the in-flight step finishes (snapshotting durably)
	// and the drain completes.
	close(gate.release)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
	r := <-stepDone
	if r.code != http.StatusOK {
		t.Fatalf("in-flight step during drain = %d (body %s), want 200", r.code, r.body)
	}
	if _, ok, err := srv.store.Snapshot("d1"); err != nil || !ok {
		t.Fatalf("no durable snapshot after drain (ok=%v err=%v)", ok, err)
	}
}

type reply2 struct {
	code int
	body []byte
}
