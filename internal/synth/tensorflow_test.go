package synth

import (
	"crypto/sha256"
	"sync"
	"testing"

	"repro/internal/dataset"
)

func TestTensorflowSpaceMatchesPaperCardinality(t *testing.T) {
	space, err := TensorflowSpace()
	if err != nil {
		t.Fatalf("TensorflowSpace error: %v", err)
	}
	if space.Size() != 384 {
		t.Errorf("space size = %d, want 384 (paper §5.1.1)", space.Size())
	}
	if space.NumDimensions() != 5 {
		t.Errorf("dimensions = %d, want 5", space.NumDimensions())
	}
}

func TestTensorflowHyperParametersMatchTable1(t *testing.T) {
	dims := TensorflowHyperParameters()
	if len(dims) != 3 {
		t.Fatalf("hyper-parameter dimensions = %d, want 3", len(dims))
	}
	byName := map[string]int{}
	for _, d := range dims {
		byName[d.Name] = len(d.Values)
	}
	if byName["learning_rate"] != 3 {
		t.Errorf("learning_rate values = %d, want 3", byName["learning_rate"])
	}
	if byName["batch_size"] != 2 {
		t.Errorf("batch_size values = %d, want 2", byName["batch_size"])
	}
	if byName["sync"] != 2 {
		t.Errorf("sync values = %d, want 2", byName["sync"])
	}
}

func TestTensorflowClusterTableMatchesTable2(t *testing.T) {
	table := TensorflowClusterTable()
	want := map[string][]int{
		"t2.small":   {8, 16, 32, 48, 64, 80, 96, 112},
		"t2.medium":  {4, 8, 16, 24, 32, 40, 48, 56},
		"t2.xlarge":  {2, 4, 8, 12, 16, 20, 24, 28},
		"t2.2xlarge": {1, 2, 4, 6, 8, 10, 12, 14},
	}
	if len(table) != len(want) {
		t.Fatalf("cluster table has %d VM types, want %d", len(table), len(want))
	}
	for vm, counts := range want {
		got, ok := table[vm]
		if !ok {
			t.Errorf("missing VM type %q", vm)
			continue
		}
		if len(got) != len(counts) {
			t.Errorf("%s has %d cluster sizes, want %d", vm, len(got), len(counts))
			continue
		}
		for i := range counts {
			if got[i] != counts[i] {
				t.Errorf("%s cluster sizes = %v, want %v", vm, got, counts)
				break
			}
		}
	}
}

func TestTensorflowKindString(t *testing.T) {
	if CNN.String() != "cnn" || RNN.String() != "rnn" || Multilayer.String() != "multilayer" {
		t.Errorf("kind names: %q %q %q", CNN, RNN, Multilayer)
	}
	if TensorflowKind(99).String() == "" {
		t.Error("unknown kind should still produce a non-empty name")
	}
	if _, err := TensorflowJob(TensorflowKind(99), 1); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestTensorflowJobIsDeterministic(t *testing.T) {
	a, err := TensorflowJob(CNN, 7)
	if err != nil {
		t.Fatalf("TensorflowJob error: %v", err)
	}
	b, err := TensorflowJob(CNN, 7)
	if err != nil {
		t.Fatalf("TensorflowJob error: %v", err)
	}
	for id := 0; id < a.Size(); id++ {
		ma, _ := a.Measurement(id)
		mb, _ := b.Measurement(id)
		if ma.RuntimeSeconds != mb.RuntimeSeconds || ma.Cost != mb.Cost {
			t.Fatalf("config %d differs across identical seeds", id)
		}
	}
	c, err := TensorflowJob(CNN, 8)
	if err != nil {
		t.Fatalf("TensorflowJob error: %v", err)
	}
	same := 0
	for id := 0; id < a.Size(); id++ {
		ma, _ := a.Measurement(id)
		mc, _ := c.Measurement(id)
		if ma.RuntimeSeconds == mc.RuntimeSeconds {
			same++
		}
	}
	if same == a.Size() {
		t.Error("different seeds produced identical datasets")
	}
}

// TestTensorflowJobStructuralProperties verifies the three properties of
// §2.1/Figure 1a that make the optimization problem hard, which the synthetic
// generator is calibrated to preserve.
func TestTensorflowJobStructuralProperties(t *testing.T) {
	for _, kind := range TensorflowKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			job, err := TensorflowJob(kind, 42)
			if err != nil {
				t.Fatalf("TensorflowJob error: %v", err)
			}
			if job.Size() != 384 {
				t.Fatalf("job size = %d, want 384", job.Size())
			}
			if job.TimeoutSeconds() != TensorflowTimeoutSeconds {
				t.Errorf("timeout = %v, want %v", job.TimeoutSeconds(), TensorflowTimeoutSeconds)
			}

			tmax, err := job.RuntimeForFeasibleFraction(0.5)
			if err != nil {
				t.Fatalf("RuntimeForFeasibleFraction error: %v", err)
			}
			frac := job.FeasibleFraction(tmax)
			if frac < 0.4 || frac > 0.6 {
				t.Errorf("feasible fraction at derived Tmax = %v, want ~0.5", frac)
			}

			// Cost spread of at least two orders of magnitude (paper reports
			// up to three).
			opt, err := job.Optimum(tmax)
			if err != nil {
				t.Fatalf("Optimum error: %v", err)
			}
			maxCost := 0.0
			for _, m := range job.Measurements() {
				if m.Cost > maxCost {
					maxCost = m.Cost
				}
			}
			if spread := maxCost / opt.Cost; spread < 50 {
				t.Errorf("cost spread = %.1fx, want >= 50x", spread)
			}

			// Few close-to-optimal configurations: 1.5%-5% of the space in
			// the paper; allow a slightly wider band for the synthetic data.
			within2, err := job.CountWithinFactor(tmax, 2)
			if err != nil {
				t.Fatalf("CountWithinFactor error: %v", err)
			}
			if within2 < 2 || within2 > 30 {
				t.Errorf("configs within 2x of optimum = %d, want a handful (2..30)", within2)
			}

			// Some configurations hit the 10-minute timeout.
			timedOut := 0
			for _, m := range job.Measurements() {
				if m.TimedOut {
					timedOut++
					if m.RuntimeSeconds != TensorflowTimeoutSeconds {
						t.Errorf("timed-out config %d has runtime %v", m.ConfigID, m.RuntimeSeconds)
					}
				}
			}
			if timedOut == 0 {
				t.Error("no configuration hit the timeout; the generator lost the hard-timeout property")
			}

			// Every configuration carries the synthetic energy metric.
			energy := job.ExtraMetric(EnergyMetric)
			if len(energy) != job.Size() {
				t.Fatalf("energy metric has %d values for %d configurations", len(energy), job.Size())
			}
			for id, e := range energy {
				if e <= 0 {
					t.Fatalf("config %d has energy %v", id, e)
				}
			}
		})
	}
}

// TestTensorflowJointOptimizationMatters reproduces the premise of Figure 1b:
// the best hyper-parameters on one cluster are not necessarily the best on
// another, so disjoint optimization can miss the global optimum.
func TestTensorflowJointOptimizationMatters(t *testing.T) {
	job, err := TensorflowJob(CNN, 42)
	if err != nil {
		t.Fatalf("TensorflowJob error: %v", err)
	}
	space := job.Space()
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		t.Fatalf("RuntimeForFeasibleFraction error: %v", err)
	}

	// Group configurations by cloud setting (vm_type, total_vcpus) and find
	// the best hyper-parameter combination within each group.
	type cloudKey struct{ vm, scale int }
	bestParams := make(map[cloudKey][3]int)
	bestCost := make(map[cloudKey]float64)
	for _, cfg := range space.Configs() {
		m, err := job.Measurement(cfg.ID)
		if err != nil {
			t.Fatalf("Measurement error: %v", err)
		}
		feasible, err := job.Feasible(cfg.ID, tmax)
		if err != nil || !feasible {
			continue
		}
		k := cloudKey{vm: cfg.Indices[3], scale: cfg.Indices[4]}
		if cur, ok := bestCost[k]; !ok || m.Cost < cur {
			bestCost[k] = m.Cost
			bestParams[k] = [3]int{cfg.Indices[0], cfg.Indices[1], cfg.Indices[2]}
		}
	}
	if len(bestParams) < 2 {
		t.Skip("not enough feasible cloud settings to compare")
	}
	distinct := make(map[[3]int]bool)
	for _, p := range bestParams {
		distinct[p] = true
	}
	if len(distinct) < 2 {
		t.Error("the same hyper-parameters are optimal on every cloud setting; the dataset would not demonstrate the need for joint optimization")
	}
}

func TestTensorflowJobsReturnsAllThree(t *testing.T) {
	jobs, err := TensorflowJobs(3)
	if err != nil {
		t.Fatalf("TensorflowJobs error: %v", err)
	}
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(jobs))
	}
	names := map[string]bool{}
	for _, j := range jobs {
		names[j.Name()] = true
	}
	for _, want := range []string{"cnn", "rnn", "multilayer"} {
		if !names[want] {
			t.Errorf("missing job %q", want)
		}
	}
}

func TestTensorflowCostConsistency(t *testing.T) {
	job, err := TensorflowJob(Multilayer, 5)
	if err != nil {
		t.Fatalf("TensorflowJob error: %v", err)
	}
	for _, m := range job.Measurements() {
		want := m.RuntimeSeconds / 3600 * m.UnitPricePerHour
		if diff := m.Cost - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("config %d: cost %v inconsistent with runtime×price %v", m.ConfigID, m.Cost, want)
		}
	}
}

// TestTensorflowJobSharesOneTable calls TensorflowJob for the three kinds
// from eight goroutines at once, each goroutine with its own seed: every
// table must equal the serial call's bit for bit, and every job, whatever
// its kind or seed, must hold the one shared configuration space.
func TestTensorflowJobSharesOneTable(t *testing.T) {
	const goroutines = 8
	kinds := TensorflowKinds()
	jobs := make([][]*dataset.Job, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, kind := range kinds {
				job, err := TensorflowJob(kind, int64(g))
				if err != nil {
					errs[g] = err
					return
				}
				jobs[g] = append(jobs[g], job)
			}
		}()
	}
	wg.Wait()

	digest := func(job *dataset.Job) [sha256.Size]byte {
		h := sha256.New()
		hashJob(h, job)
		return [sha256.Size]byte(h.Sum(nil))
	}
	space := jobs[0][0].Space()
	for g := range jobs {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i, kind := range kinds {
			want, err := TensorflowJob(kind, int64(g))
			if err != nil {
				t.Fatal(err)
			}
			got := jobs[g][i]
			if digest(got) != digest(want) {
				t.Errorf("%s seed %d: concurrent table differs from the serial one", kind, g)
			}
			if got.Space() != space || want.Space() != space {
				t.Errorf("%s seed %d: job holds its own configuration space, want the shared one", kind, g)
			}
		}
	}
}
