package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	lynceus "repro"
	"repro/internal/serve"
)

// defaultSeed is the seed whose outputs are pinned by committed digests.
const defaultSeed = 1

// expectedEntry pins one group's campaign output: the trial count, a digest
// of the trial-ID sequence, and the recommended configuration (for the
// restart load's mid-flight campaigns, the recommendation so far).
type expectedEntry struct {
	Group       int    `json:"group"`
	Trials      int    `json:"trials"`
	Digest      string `json:"digest"`
	Recommended int    `json:"recommended"`
}

type expectedFile struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Entries  []expectedEntry `json:"campaigns"`
}

func trialDigest(trials []int) string {
	h := sha256.New()
	var buf [8]byte
	for _, id := range trials {
		binary.LittleEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func entryOf(o outcome) expectedEntry {
	return expectedEntry{Group: o.group, Trials: len(o.trials), Digest: trialDigest(o.trials), Recommended: o.recommended}
}

// loadExpected reads the committed digests of a workload; a missing file is
// not an error (every campaign is then checked the other way).
func loadExpected(dir string, w *workload) (map[int]expectedEntry, error) {
	data, err := os.ReadFile(filepath.Join(dir, w.name+".json"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var file expectedFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("decoding expected outputs of %s: %w", w.name, err)
	}
	if file.Seed != defaultSeed {
		return nil, fmt.Errorf("expected outputs of %s are for seed %d, want %d", w.name, file.Seed, defaultSeed)
	}
	out := make(map[int]expectedEntry, len(file.Entries))
	for _, e := range file.Entries {
		out[e.Group] = e
	}
	return out, nil
}

// isolatedOutcome runs the group's campaign in-process and share-nothing:
// the reference every served campaign must match bitwise.
func isolatedOutcome(w *workload, in *inputs, group int) (outcome, error) {
	spec := in.groupSpec(group)
	env, err := serve.BuildEnv(spec.Env)
	if err != nil {
		return outcome{}, err
	}
	tuner, err := lynceus.StartTuner(spec.Tuner.TunerConfig(), env, spec.Options.Options())
	if err != nil {
		return outcome{}, err
	}
	for k := 0; k < w.maxSteps(); k++ {
		done, err := tuner.Step()
		if err != nil {
			return outcome{}, err
		}
		if done {
			break
		}
	}
	res, err := tuner.Result()
	if err != nil {
		return outcome{}, err
	}
	return outcomeOf("isolated", group, res), nil
}

// checkOutcomes verifies what the campaigns produced and returns one message
// per mismatch. Groups with a committed digest are compared against it; all
// replicas of a group must agree; and of the groups without a digest, two are
// sampled and compared against an isolated in-process run.
func checkOutcomes(w *workload, in *inputs, outcomes []outcome, expected map[int]expectedEntry) ([]string, error) {
	var bad []string
	first := make(map[int]outcome)
	var unpinned []int
	for _, o := range outcomes {
		ref, seen := first[o.group]
		if !seen {
			first[o.group] = o
			if want, ok := expected[o.group]; ok {
				if got := entryOf(o); got != want {
					bad = append(bad, fmt.Sprintf("campaign %s (group %d): got %+v, committed %+v", o.id, o.group, got, want))
				}
			} else {
				unpinned = append(unpinned, o.group)
			}
			continue
		}
		if !slices.Equal(o.trials, ref.trials) || o.recommended != ref.recommended {
			bad = append(bad, fmt.Sprintf("campaign %s disagrees with its replica %s (group %d)", o.id, ref.id, o.group))
		}
	}
	sort.Ints(unpinned)
	if len(unpinned) > 2 {
		unpinned = []int{unpinned[0], unpinned[len(unpinned)-1]}
	}
	refs := make([]outcome, len(unpinned))
	errs := make([]error, len(unpinned))
	var wg sync.WaitGroup
	for i, g := range unpinned {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refs[i], errs[i] = isolatedOutcome(w, in, g)
		}()
	}
	wg.Wait()
	for i, g := range unpinned {
		if errs[i] != nil {
			return bad, fmt.Errorf("isolated run of group %d: %w", g, errs[i])
		}
		got := first[g]
		if !slices.Equal(got.trials, refs[i].trials) || got.recommended != refs[i].recommended {
			bad = append(bad, fmt.Sprintf("campaign %s (group %d) differs from its isolated run: %d trials recommending %d, want %d recommending %d",
				got.id, g, len(got.trials), got.recommended, len(refs[i].trials), refs[i].recommended))
		}
	}
	return bad, nil
}

// updateExpected regenerates the committed digests from isolated runs.
func updateExpected(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range workloads {
		in, err := newInputs(w, defaultSeed)
		if err != nil {
			return err
		}
		file := expectedFile{Workload: w.name, Seed: defaultSeed, Entries: make([]expectedEntry, w.expectedCampaigns)}
		errs := make([]error, loadClients)
		var wg sync.WaitGroup
		for worker := 0; worker < loadClients; worker++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for g := worker; g < w.expectedCampaigns; g += loadClients {
					o, err := isolatedOutcome(w, in, g)
					if err != nil {
						errs[worker] = err
						return
					}
					file.Entries[g] = entryOf(o)
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, w.name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "lynbench: wrote %s (%d campaigns)\n", path, len(file.Entries))
	}
	return nil
}
