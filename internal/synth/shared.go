package synth

import (
	"runtime"
	"sync"
	"weak"

	"repro/internal/dataset"
)

// A generated lookup table is a pure function of its generator, job name and
// seed, and a dataset.Job is immutable, so every caller asking for the same
// table while one copy is still in use can share that copy. liveTables maps
// each tableKey to a weak pointer to the job last built for it: it never
// keeps a table alive, and a key leaves the map once its job is collected.
// A plain map under a mutex, not a sync.Map, so that publishing a job boxes
// neither its key nor its weak pointer.

// tableKey names one generated table.
type tableKey struct {
	generator string // "tensorflow", "scout" or "cherrypick"
	name      string
	seed      int64
}

var (
	tablesMu   sync.Mutex
	liveTables = map[tableKey]weak.Pointer[dataset.Job]{}
)

// sharedJob returns the job some caller still holds for key, or else the one
// build makes, which is then shared until it is collected. Concurrent first
// calls may each build; the first to publish its job is the one returned to
// every caller that has not already returned its own, and all of them are
// value-equal.
func sharedJob(key tableKey, build func() (*dataset.Job, error)) (*dataset.Job, error) {
	tablesMu.Lock()
	job := liveTables[key].Value()
	tablesMu.Unlock()
	if job != nil {
		return job, nil
	}
	job, err := build()
	if err != nil {
		return nil, err
	}
	tablesMu.Lock()
	defer tablesMu.Unlock()
	if live := liveTables[key].Value(); live != nil {
		return live, nil
	}
	// A collected job's entry may still be here, its cleanup not yet run;
	// the new entry replaces it and that cleanup then leaves it alone.
	wp := weak.Make(job)
	liveTables[key] = wp
	runtime.AddCleanup(job, forgetTable, liveEntry{key, wp})
	return job, nil
}

// liveEntry is one published map entry.
type liveEntry struct {
	key tableKey
	wp  weak.Pointer[dataset.Job]
}

// forgetTable runs once e's job is collected and deletes e's entry, unless a
// rebuild stored after the collection has replaced it.
func forgetTable(e liveEntry) {
	tablesMu.Lock()
	defer tablesMu.Unlock()
	if liveTables[e.key] == e.wp {
		delete(liveTables, e.key)
	}
}
