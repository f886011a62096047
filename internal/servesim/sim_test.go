package servesim

import (
	"math"
	"testing"
)

// testScenario is a small, fast scenario shared by the unit tests.
func testScenario() Scenario {
	return Scenario{
		Name: "unit",
		Classes: []SLOClass{
			{Name: "fast", Share: 0.7, LatencySLO: 2, PromptMin: 16, PromptMax: 64, OutputMin: 4, OutputMax: 12},
			{Name: "slow", Share: 0.3, LatencySLO: 10, PromptMin: 32, PromptMax: 128, OutputMin: 16, OutputMax: 48},
		},
		ArrivalRate:     5,
		Requests:        40,
		QueuePerReplica: 8,
		StepBase:        0.030,
		StepPerSeq:      0.004,
		PrefillPerToken: 0.0004,
		NoiseSpread:     0.15,
		MaxSLOViolation: 0.1,
	}
}

func testDeployment() Deployment {
	return Deployment{Replicas: 2, Type: Catalog[0], MaxBatch: 4, Policy: FIFO}
}

func TestSimulateBasics(t *testing.T) {
	res, err := Simulate(testScenario(), testDeployment(), 1, nil)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Arrived != 40 {
		t.Errorf("arrived %d, want 40", res.Arrived)
	}
	if res.Completed+res.Rejected != res.Arrived {
		t.Errorf("completed %d + rejected %d != arrived %d", res.Completed, res.Rejected, res.Arrived)
	}
	if res.Completed == 0 {
		t.Error("no requests completed")
	}
	if res.Makespan <= 0 {
		t.Errorf("non-positive makespan %v", res.Makespan)
	}
	if res.Steps <= 0 {
		t.Errorf("non-positive step count %d", res.Steps)
	}
	if v := res.SLOViolation(); v < 0 || v > 1 {
		t.Errorf("SLO violation %v outside [0,1]", v)
	}
	totalArr, totalComp, totalRej, totalSLO := 0, 0, 0, 0
	for _, cm := range res.PerClass {
		totalArr += cm.Arrived
		totalComp += cm.Completed
		totalRej += cm.Rejected
		totalSLO += cm.SLOAttained
	}
	if totalArr != res.Arrived || totalComp != res.Completed || totalRej != res.Rejected || totalSLO != res.SLOAttained {
		t.Errorf("per-class aggregates (%d,%d,%d,%d) disagree with totals (%d,%d,%d,%d)",
			totalArr, totalComp, totalRej, totalSLO, res.Arrived, res.Completed, res.Rejected, res.SLOAttained)
	}
	if len(res.MaxKVUsed) != 2 {
		t.Fatalf("MaxKVUsed has %d entries, want 2", len(res.MaxKVUsed))
	}
}

func TestGenerateRequestsDeterministicAndOrdered(t *testing.T) {
	s := testScenario()
	a := GenerateRequests(s, 7)
	b := GenerateRequests(s, 7)
	if len(a) != s.Requests {
		t.Fatalf("generated %d requests, want %d", len(a), s.Requests)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].Arrival < a[i-1].Arrival {
			t.Fatalf("arrivals out of order at %d: %v after %v", i, a[i].Arrival, a[i-1].Arrival)
		}
		c := s.Classes[a[i].Class]
		if a[i].PromptTokens < c.PromptMin || a[i].PromptTokens > c.PromptMax {
			t.Fatalf("request %d prompt %d outside [%d,%d]", i, a[i].PromptTokens, c.PromptMin, c.PromptMax)
		}
		if a[i].OutputTokens < c.OutputMin || a[i].OutputTokens > c.OutputMax {
			t.Fatalf("request %d output %d outside [%d,%d]", i, a[i].OutputTokens, c.OutputMin, c.OutputMax)
		}
	}
	if c := GenerateRequests(s, 8); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Error("different seeds produced an identical request prefix")
	}
}

func TestSimulateSeedChangesOutcome(t *testing.T) {
	s := testScenario()
	d := testDeployment()
	a, err := Simulate(s, d, 1, nil)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	b, err := Simulate(s, d, 2, nil)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if a.Makespan == b.Makespan {
		t.Errorf("different seeds produced identical makespan %v", a.Makespan)
	}
}

// TestMoreCapacityHelps pins the qualitative shape of the model: more
// replicas of the same type cannot hurt throughput, so the makespan shrinks
// or stays arrival-bound, and a severely underprovisioned deployment misses
// SLOs that a provisioned one meets.
func TestMoreCapacityHelps(t *testing.T) {
	s := testScenario()
	small := Deployment{Replicas: 1, Type: Catalog[0], MaxBatch: 2, Policy: FIFO}
	big := Deployment{Replicas: 4, Type: Catalog[2], MaxBatch: 16, Policy: FIFO}
	sr, err := Simulate(s, small, 3, nil)
	if err != nil {
		t.Fatalf("Simulate small: %v", err)
	}
	br, err := Simulate(s, big, 3, nil)
	if err != nil {
		t.Fatalf("Simulate big: %v", err)
	}
	if br.Makespan >= sr.Makespan {
		t.Errorf("big deployment makespan %v not below small %v", br.Makespan, sr.Makespan)
	}
	if br.SLOViolation() >= sr.SLOViolation() {
		t.Errorf("big deployment violation %v not below small %v", br.SLOViolation(), sr.SLOViolation())
	}
}

// TestOversizedRequestRejected pins the arrival-time rejection of requests
// that could never fit the instance KV budget (instead of deadlocking a
// head-of-line queue).
func TestOversizedRequestRejected(t *testing.T) {
	s := testScenario()
	s.Classes = []SLOClass{{Name: "huge", Share: 1, LatencySLO: 10,
		PromptMin: 5000, PromptMax: 6000, OutputMin: 10, OutputMax: 20}}
	s.Requests = 5
	d := testDeployment() // g4-small: 4096 KV tokens < 5010 minimum need
	res, err := Simulate(s, d, 1, nil)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Rejected != 5 || res.Completed != 0 {
		t.Errorf("rejected=%d completed=%d, want all 5 rejected", res.Rejected, res.Completed)
	}
}

func TestValidationErrors(t *testing.T) {
	s := testScenario()
	d := testDeployment()
	bad := s
	bad.ArrivalRate = 0
	if _, err := Simulate(bad, d, 1, nil); err == nil {
		t.Error("zero arrival rate accepted")
	}
	bad = s
	bad.Classes = nil
	if _, err := Simulate(bad, d, 1, nil); err == nil {
		t.Error("empty class mix accepted")
	}
	badD := d
	badD.Replicas = 0
	if _, err := Simulate(s, badD, 1, nil); err == nil {
		t.Error("zero replicas accepted")
	}
	badD = d
	badD.MaxBatch = -1
	if _, err := Simulate(s, badD, 1, nil); err == nil {
		t.Error("negative max batch accepted")
	}
	badD = d
	badD.Policy = Policy(99)
	if _, err := Simulate(s, badD, 1, nil); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	want := []string{"fifo", "shortest-queue", "slo-priority"}
	for i, p := range Policies() {
		if got := p.String(); got != want[i] {
			t.Errorf("Policies()[%d].String() = %q, want %q", i, got, want[i])
		}
	}
	if got := Policy(99).String(); got != "policy(99)" {
		t.Errorf("unknown policy String() = %q, want policy(99)", got)
	}
}

func TestNoiseSpreadZeroIsStillDeterministicAcrossSeeds(t *testing.T) {
	// With zero noise the service times are deterministic, but arrivals still
	// differ per seed; the run must stay well-formed.
	s := testScenario()
	s.NoiseSpread = 0
	res, err := Simulate(s, testDeployment(), 5, nil)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Completed+res.Rejected != res.Arrived || math.IsNaN(res.Makespan) {
		t.Errorf("malformed result %+v", res)
	}
}

// TestSimulateAllocsFlat is the allocation ratchet of the event loop: an
// untraced run allocates a fixed handful of buffers (the request stream, the
// instances, their running batches, the queues and the result slices; its
// two RNGs come from a pool; 7 measured on go1.24) however many requests and
// decode steps it simulates, under every policy. Ten times the request
// volume must not add one allocation. Under the race detector sync.Pool
// drops a random quarter of what it is given, so the count is not
// deterministic there and the ratchet runs only in race-free builds.
func TestSimulateAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const bound = 7
	s, err := ProfileScenario("batch")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Deployment{
		{Replicas: 1, Type: Catalog[0], MaxBatch: 2, Policy: FIFO},
		{Replicas: 4, Type: Catalog[1], MaxBatch: 16, Policy: ShortestQueue},
		{Replicas: 8, Type: Catalog[3], MaxBatch: 8, Policy: SLOPriority},
	} {
		var allocs [2]float64
		for i, n := range []int{96, 960} {
			s.Requests = n
			allocs[i] = testing.AllocsPerRun(5, func() {
				if _, err := Simulate(s, d, 3, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[0] != allocs[1] || allocs[1] > bound {
			t.Errorf("%v: %v allocations at 96 requests, %v at 960; want equal and at most %d",
				d.Policy, allocs[0], allocs[1], bound)
		}
	}
}

// BenchmarkSimulate runs Simulate over every 7th configuration of a
// profile's 384-point space (55 deployments across every replica count,
// type, max-batch and policy), one seeded run each per op.
func BenchmarkSimulate(b *testing.B) {
	for _, profile := range Profiles() {
		b.Run(profile, func(b *testing.B) {
			env, err := NewProfileEnv(profile, 1)
			if err != nil {
				b.Fatal(err)
			}
			s := env.Scenario()
			var deps []Deployment
			for id := 0; id < env.Space().Size(); id += 7 {
				cfg, err := env.Space().Config(id)
				if err != nil {
					b.Fatal(err)
				}
				d, err := env.Deployment(cfg)
				if err != nil {
					b.Fatal(err)
				}
				deps = append(deps, d)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, d := range deps {
					if _, err := Simulate(s, d, int64(j), nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
