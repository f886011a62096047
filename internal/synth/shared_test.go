package synth

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
)

// jobDigest is the TestGeneratedTablesFrozen hash of one job.
func jobDigest(job *dataset.Job) []byte {
	h := sha256.New()
	hashJob(h, job)
	return h.Sum(nil)
}

// TestTableBuildAllocs ratchets what building a lookup table allocates: a
// constant that does not depend on the table's 384 (Tensorflow) or 72
// (Scout) rows, one allocation per configuration would add hundreds. The
// bounds are the counts measured, with and without the race detector, once
// the tables went column-wise. Scout's is higher because every build
// constructs its space and looks up its nine VM types, where the Tensorflow
// table shares both. CherryPick builds are ratcheted by
// TestCherryPickTableAllocsFlat.
func TestTableBuildAllocs(t *testing.T) {
	cnn, err := tfProfileFor(CNN)
	if err != nil {
		t.Fatal(err)
	}
	tf := testing.AllocsPerRun(20, func() {
		if _, err := buildTensorflowJob(cnn, 42); err != nil {
			t.Fatal(err)
		}
	})
	if tf > 7 {
		t.Errorf("a Tensorflow table build allocates %v times, want at most 7", tf)
	}
	for _, p := range scoutProfiles {
		scout := testing.AllocsPerRun(5, func() {
			if _, err := buildScoutJob(p, 42); err != nil {
				t.Fatal(err)
			}
		})
		if scout > 47 {
			t.Errorf("the %s table build allocates %v times, want at most 47", p.name, scout)
		}
	}
}

// TestSharedJobWhileLive: while a caller holds a job, asking for the same
// table again returns the same pointer without allocating, and a different
// seed or name gets a job of its own.
func TestSharedJobWhileLive(t *testing.T) {
	tf, err := TensorflowJob(RNN, 7001)
	if err != nil {
		t.Fatal(err)
	}
	scout, err := ScoutJob("hibench-join", 7001)
	if err != nil {
		t.Fatal(err)
	}
	cps, err := CherryPickJobs(7001)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := TensorflowJob(RNN, 7001); again != tf {
		t.Error("a second TensorflowJob call built a new job while the first is live")
	}
	if again, _ := ScoutJob("hibench-join", 7001); again != scout {
		t.Error("a second ScoutJob call built a new job while the first is live")
	}
	all, _ := ScoutJobs(7001)
	if !contains(all, scout) {
		t.Error("ScoutJobs did not return the live hibench-join job")
	}
	again, _ := CherryPickJobs(7001)
	for i := range cps {
		if again[i] != cps[i] {
			t.Errorf("a second CherryPickJobs call built a new %s job while the first is live", cps[i].Name())
		}
	}
	if other, _ := TensorflowJob(RNN, 7002); other == tf {
		t.Error("a different seed returned the same job")
	}
	if other, _ := TensorflowJob(CNN, 7001); other == tf {
		t.Error("a different kind returned the same job")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := TensorflowJob(RNN, 7001); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a live table lookup allocates %v times, want 0", allocs)
	}
	runtime.KeepAlive(tf)
	runtime.KeepAlive(scout)
	runtime.KeepAlive(cps)
}

func contains(jobs []*dataset.Job, job *dataset.Job) bool {
	for _, j := range jobs {
		if j == job {
			return true
		}
	}
	return false
}

// TestSharedJobRebuildAfterCollect: once every caller has dropped a table
// and it is collected, the next call rebuilds it value-equal to the first.
func TestSharedJobRebuildAfterCollect(t *testing.T) {
	key := tableKey{"tensorflow", Multilayer.String(), 7003}
	want := func() []byte {
		job, err := TensorflowJob(Multilayer, 7003)
		if err != nil {
			t.Fatal(err)
		}
		return jobDigest(job)
	}()
	waitGone(t, key)
	job, err := TensorflowJob(Multilayer, 7003)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jobDigest(job), want) {
		t.Error("the rebuilt table differs from the collected one")
	}
}

// TestSharedJobConcurrentFirstCalls: concurrent first calls for one table
// all return value-equal jobs (run under -race, it also checks the map's
// publication).
func TestSharedJobConcurrentFirstCalls(t *testing.T) {
	const callers = 8
	jobs := make([]*dataset.Job, callers)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, err := ScoutJob("sparkperf-als", 7004)
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = job
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := jobDigest(jobs[0])
	for i, job := range jobs[1:] {
		if !bytes.Equal(jobDigest(job), want) {
			t.Errorf("caller %d got a table that differs from caller 0's", i+1)
		}
	}
	// Every later call shares one of them.
	if live, _ := ScoutJob("sparkperf-als", 7004); !contains(jobs, live) {
		t.Error("a call after the race built a new job while the racers' are live")
	}
	runtime.KeepAlive(jobs)
}

// TestSharedJobDeadKeysLeave: the map keeps no entry for a table nobody
// holds once it has been collected.
func TestSharedJobDeadKeysLeave(t *testing.T) {
	keys := make([]tableKey, 100)
	for i := range keys {
		seed := int64(8000 + i)
		if _, err := TensorflowJob(CNN, seed); err != nil {
			t.Fatal(err)
		}
		keys[i] = tableKey{"tensorflow", CNN.String(), seed}
	}
	waitGone(t, keys...)
}

// waitGone collects garbage until none of keys is in liveTables, failing
// after a bounded wait.
func waitGone(t *testing.T, keys ...tableKey) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		tablesMu.Lock()
		left := 0
		for _, key := range keys {
			if _, ok := liveTables[key]; ok {
				left++
			}
		}
		tablesMu.Unlock()
		if left == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d dropped tables still in the map after 10 s of collections", left, len(keys))
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkTableBuild measures generating one lookup table, without
// publishing it to the shared map. serve's BenchmarkBuildEnv times the whole
// path of a campaign whose table nobody holds: this generation, the
// publication and the environment wrapper.
func BenchmarkTableBuild(b *testing.B) {
	cnn, err := tfProfileFor(CNN)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tensorflow", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := buildTensorflowJob(cnn, 42); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scout", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := buildScoutJob(scoutProfiles[1], 42); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cherrypick", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := buildCherryPickJob(cherrypickSpecs[0], 42); err != nil {
				b.Fatal(err)
			}
		}
	})
}
