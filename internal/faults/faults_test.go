package faults

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/configspace"
	"repro/internal/dataset"
	"repro/internal/optimizer"
	"repro/internal/servesim"
)

func fixtureEnv(t *testing.T) *optimizer.JobEnvironment {
	t.Helper()
	space, err := configspace.New([]configspace.Dimension{
		{Name: "vm", Values: []float64{0, 1, 2}},
		{Name: "workers", Values: []float64{2, 4, 8, 16}},
	}, nil)
	if err != nil {
		t.Fatalf("configspace.New: %v", err)
	}
	measurements := make([]dataset.Measurement, space.Size())
	for id := 0; id < space.Size(); id++ {
		runtime := float64(1200 - 90*id)
		price := 0.5 + 0.1*float64(id)
		measurements[id] = dataset.Measurement{
			ConfigID:         id,
			RuntimeSeconds:   runtime,
			UnitPricePerHour: price,
			Cost:             runtime / 3600 * price,
		}
	}
	job, err := dataset.NewJob("fixture", space, measurements, 0, nil)
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	env, err := optimizer.NewJobEnvironment(job)
	if err != nil {
		t.Fatalf("NewJobEnvironment: %v", err)
	}
	return env
}

func mustCfg(t *testing.T, env optimizer.Environment, id int) configspace.Config {
	t.Helper()
	cfg, err := env.Space().Config(id)
	if err != nil {
		t.Fatalf("Config(%d): %v", id, err)
	}
	return cfg
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{TransientRate: -0.1},
		{TransientRate: 1.1},
		{StragglerRate: 2},
		{StragglerFactor: 0.5},
		{FailedCostFraction: -1},
		{CrashAtRun: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid params %d accepted: %+v", i, p)
		}
	}
	if err := (Params{TransientRate: 0.1, StragglerRate: 0.05, StragglerFactor: 3, FailedCostFraction: 0.25}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if _, err := New(nil, Params{}); err == nil {
		t.Error("nil inner environment accepted")
	}
}

// outcome flattens one Run call for comparison.
type outcome struct {
	cost     float64
	runtime  float64
	timedOut bool
	err      string
}

func sequence(t *testing.T, params Params, ids []int) []outcome {
	t.Helper()
	env, err := New(fixtureEnv(t), params)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	out := make([]outcome, len(ids))
	for i, id := range ids {
		trial, err := env.Run(mustCfg(t, env, id))
		out[i] = outcome{cost: trial.Cost, runtime: trial.RuntimeSeconds, timedOut: trial.TimedOut}
		if err != nil {
			out[i].err = err.Error()
		}
	}
	return out
}

func TestFaultStreamIsDeterministic(t *testing.T) {
	params := Params{Seed: 11, TransientRate: 0.4, StragglerRate: 0.3, FailedCostFraction: 0.5}
	ids := []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	a := sequence(t, params, ids)
	b := sequence(t, params, ids)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	// The stream must actually inject something at these rates.
	var failures, stragglers int
	for _, o := range a {
		if o.err != "" {
			failures++
		}
		if o.timedOut {
			stragglers++
		}
	}
	if failures == 0 {
		t.Error("40% transient rate injected no failure in 20 runs")
	}
	if stragglers == 0 {
		t.Error("30% straggler rate injected no straggler in 20 runs")
	}
	// A different seed must yield a different fault pattern.
	params.Seed = 12
	c := sequence(t, params, ids)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("fault stream identical under a different seed")
	}
}

func TestTransientFaultsAreRetryableAndPriced(t *testing.T) {
	env, err := New(fixtureEnv(t), Params{Seed: 11, TransientRate: 1, FailedCostFraction: 0.5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	inner := fixtureEnv(t)
	want, err := inner.Run(mustCfg(t, inner, 3))
	if err != nil {
		t.Fatalf("inner Run: %v", err)
	}
	_, rerr := env.Run(mustCfg(t, env, 3))
	var runErr *optimizer.RunError
	if !errors.As(rerr, &runErr) {
		t.Fatalf("transient fault = %T %v, want *RunError", rerr, rerr)
	}
	if !runErr.Transient || !errors.Is(rerr, ErrInjectedTransient) {
		t.Errorf("transient fault misclassified: transient=%v err=%v", runErr.Transient, rerr)
	}
	if runErr.CostUSD != 0.5*want.Cost {
		t.Errorf("failed attempt billed %v, want %v", runErr.CostUSD, 0.5*want.Cost)
	}
}

func TestPermanentIDsAlwaysFail(t *testing.T) {
	env, err := New(fixtureEnv(t), Params{Seed: 11, PermanentIDs: []int{4}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for attempt := 0; attempt < 3; attempt++ {
		_, rerr := env.Run(mustCfg(t, env, 4))
		var runErr *optimizer.RunError
		if !errors.As(rerr, &runErr) || runErr.Transient || !errors.Is(rerr, ErrInjectedPermanent) {
			t.Fatalf("attempt %d on permanent config = %v, want permanent RunError", attempt, rerr)
		}
	}
	if _, err := env.Run(mustCfg(t, env, 5)); err != nil {
		t.Errorf("non-listed config failed: %v", err)
	}
}

func TestStragglerInflatesMeasurement(t *testing.T) {
	env, err := New(fixtureEnv(t), Params{Seed: 11, StragglerRate: 1, StragglerFactor: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	inner := fixtureEnv(t)
	want, err := inner.Run(mustCfg(t, inner, 2))
	if err != nil {
		t.Fatalf("inner Run: %v", err)
	}
	got, err := env.Run(mustCfg(t, env, 2))
	if err != nil {
		t.Fatalf("straggler Run: %v", err)
	}
	if !got.TimedOut || got.RuntimeSeconds != 3*want.RuntimeSeconds || got.Cost != 3*want.Cost {
		t.Errorf("straggler = %+v, want 3x inflation of %+v with TimedOut", got, want)
	}
}

func TestCrashFiresOnceAndIsFatal(t *testing.T) {
	env, err := New(fixtureEnv(t), Params{Seed: 11, CrashAtRun: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := env.Run(mustCfg(t, env, 0)); err != nil {
		t.Fatalf("run before crash point failed: %v", err)
	}
	_, cerr := env.Run(mustCfg(t, env, 1))
	if !errors.Is(cerr, ErrInjectedCrash) || !errors.Is(cerr, optimizer.ErrEnvironmentFatal) {
		t.Fatalf("crash = %v, want ErrInjectedCrash wrapping ErrEnvironmentFatal", cerr)
	}
	if !env.Crashed() {
		t.Error("Crashed() false after the crash fired")
	}
	if _, err := env.Run(mustCfg(t, env, 1)); err != nil {
		t.Errorf("crash fired twice: %v", err)
	}
}

func TestEnvStateRoundTrip(t *testing.T) {
	params := Params{Seed: 11, TransientRate: 0.4, FailedCostFraction: 0.5}
	a, err := New(fixtureEnv(t), params)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Advance the fault stream: attempt counters decide future faults.
	ids := []int{0, 1, 1, 2, 3, 3, 3}
	for _, id := range ids {
		a.Run(mustCfg(t, a, id))
	}
	state, err := a.EnvState()
	if err != nil {
		t.Fatalf("EnvState: %v", err)
	}

	b, err := New(fixtureEnv(t), params)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := b.RestoreEnvState(state); err != nil {
		t.Fatalf("RestoreEnvState: %v", err)
	}
	if b.Runs() != a.Runs() {
		t.Fatalf("restored run count %d, want %d", b.Runs(), a.Runs())
	}
	// Both environments must now produce identical outcomes on the same tail.
	tail := []int{0, 1, 2, 3, 4, 5, 0, 1, 2, 3}
	for i, id := range tail {
		ta, ea := a.Run(mustCfg(t, a, id))
		tb, eb := b.Run(mustCfg(t, b, id))
		if (ea == nil) != (eb == nil) {
			t.Fatalf("tail run %d: errors diverged (%v vs %v)", i, ea, eb)
		}
		if ea != nil && ea.Error() != eb.Error() {
			t.Fatalf("tail run %d: error text diverged (%v vs %v)", i, ea, eb)
		}
		if ta.Cost != tb.Cost || ta.TimedOut != tb.TimedOut {
			t.Fatalf("tail run %d: outcomes diverged (%+v vs %+v)", i, ta, tb)
		}
	}

	if err := b.RestoreEnvState([]byte("{")); err == nil {
		t.Error("corrupt state accepted")
	}
	if err := b.RestoreEnvState([]byte(`{"runs":-1}`)); err == nil {
		t.Error("negative run count accepted")
	}
}

// TestRestoreEnvStateNamesLowestCorruptID restores a state with two negative
// attempt counts many times: the error must name the lower ID every time,
// not whichever entry map order reaches first.
func TestRestoreEnvStateNamesLowestCorruptID(t *testing.T) {
	env, err := New(fixtureEnv(t), Params{Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 20; i++ {
		err := env.RestoreEnvState([]byte(`{"runs":3,"attempts":{"40":1,"17":-2,"9":-1,"3":2}}`))
		if err == nil || !strings.Contains(err.Error(), "config 9 ") {
			t.Fatalf("restore %d: error %v, want one naming config 9", i, err)
		}
	}
}

// TestEnvStateCarriesInnerState wraps a stochastic simulator, whose run
// counters position its noise streams: the wrapper's state must carry them,
// or a restored campaign re-draws noise already drawn.
func TestEnvStateCarriesInnerState(t *testing.T) {
	wrap := func() *Env {
		inner, err := servesim.NewProfileEnv("batch", 1)
		if err != nil {
			t.Fatalf("NewProfileEnv: %v", err)
		}
		env, err := New(inner, Params{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return env
	}
	a, b := wrap(), wrap()
	a.Run(mustCfg(t, a, 0))
	state, err := a.EnvState()
	if err != nil {
		t.Fatalf("EnvState: %v", err)
	}
	if err := b.RestoreEnvState(state); err != nil {
		t.Fatalf("RestoreEnvState: %v", err)
	}
	ta, _ := a.Run(mustCfg(t, a, 0))
	tb, _ := b.Run(mustCfg(t, b, 0))
	if ta.Cost != tb.Cost {
		t.Fatalf("second run of config 0 cost %v after restore, %v uninterrupted", tb.Cost, ta.Cost)
	}
}

func TestPriceLookupsNeverFault(t *testing.T) {
	env, err := New(fixtureEnv(t), Params{Seed: 11, TransientRate: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for id := 0; id < env.Space().Size(); id++ {
		if _, err := env.UnitPricePerHour(mustCfg(t, env, id)); err != nil {
			t.Fatalf("price lookup %d faulted: %v", id, err)
		}
	}
	if env.Runs() != 0 {
		t.Errorf("price lookups consumed %d fault-stream runs", env.Runs())
	}
}
