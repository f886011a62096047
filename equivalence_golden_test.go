package lynceus

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the pre-refactor golden campaign files")

// goldenCampaign is the recorded outcome of one tuning campaign: the exact
// sequence of profiled configuration IDs, the recommendation, and the spent
// budget. The committed files under testdata/ were generated from the
// pre-candidate-provider-refactor planner, so these tests prove that the
// exhaustive search reproduces the historical behavior bit for bit.
type goldenCampaign struct {
	Trials      []int   `json:"trials"`
	Recommended int     `json:"recommended"`
	Feasible    bool    `json:"feasible"`
	SpentBudget float64 `json:"spent_budget"`
}

// TestExhaustiveMatchesPreRefactorGolden runs the default (exhaustive) tuner
// on the golden campaigns and requires bitwise-identical trial sequences,
// recommendations and spent budgets to the files recorded before the
// candidate-provider refactor.
func TestExhaustiveMatchesPreRefactorGolden(t *testing.T) {
	for _, name := range []string{"tensorflow384-la1", "tensorflow384-la2", "scout72-la1", "scout72-la2"} {
		t.Run(name, func(t *testing.T) {
			f := fixtureNamed(t, name)
			tuner, err := NewTuner(f.cfg)
			if err != nil {
				t.Fatalf("NewTuner: %v", err)
			}
			env, opts := f.inputs(t, f.seed)
			res, err := tuner.Optimize(env, opts)
			if err != nil {
				t.Fatalf("Optimize: %v", err)
			}
			got := goldenCampaign{
				Trials:      make([]int, len(res.Trials)),
				Recommended: res.Recommended.Config.ID,
				Feasible:    res.RecommendedFeasible,
				SpentBudget: res.SpentBudget,
			}
			for i, tr := range res.Trials {
				got.Trials[i] = tr.Config.ID
			}

			path := filepath.Join("testdata", "golden_"+name+".json")
			if *updateGolden {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatalf("marshaling golden: %v", err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatalf("writing golden: %v", err)
				}
				return
			}

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (re-run with -update-golden on the pre-refactor tree to regenerate): %v", err)
			}
			var want goldenCampaign
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("parsing golden: %v", err)
			}
			if len(got.Trials) != len(want.Trials) {
				t.Fatalf("trial count %d, golden %d (got %v, want %v)", len(got.Trials), len(want.Trials), got.Trials, want.Trials)
			}
			for i := range got.Trials {
				if got.Trials[i] != want.Trials[i] {
					t.Fatalf("trial %d is config %d, golden %d (got %v, want %v)", i, got.Trials[i], want.Trials[i], got.Trials, want.Trials)
				}
			}
			if got.Recommended != want.Recommended || got.Feasible != want.Feasible {
				t.Errorf("recommendation %d (feasible=%v), golden %d (feasible=%v)", got.Recommended, got.Feasible, want.Recommended, want.Feasible)
			}
			if got.SpentBudget != want.SpentBudget {
				t.Errorf("spent budget %v, golden %v", got.SpentBudget, want.SpentBudget)
			}
		})
	}
}
