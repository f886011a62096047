package serve

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
)

// TestBuildEnvAllocs ratchets what building a lookup-table environment from
// its spec allocates, the per-campaign cost of PutSpec and of a restart's
// rescan, on both paths through internal/synth's shared tables:
//   - a seed nobody holds builds the table, a constant that does not depend
//     on its 384 (tensorflow) or 72 (scout) rows. The bounds are the counts
//     measured: the table build (ratcheted on its own by synth's
//     TestTableBuildAllocs at 7 and 47), three for publishing it to the
//     shared map (its weak handle and its cleanup) and one for the
//     environment wrapper;
//   - a spec whose table another campaign holds looks it up, so the
//     environment wrapper is the one allocation.
func TestBuildEnvAllocs(t *testing.T) {
	for _, tc := range []struct {
		spec  EnvSpec
		build float64
	}{
		{EnvSpec{Kind: "tensorflow", Name: "cnn", Seed: 42}, 11},
		{EnvSpec{Kind: "scout", Name: "hibench-sort", Seed: 42}, 51},
	} {
		unheld := tc.spec
		unheld.Seed = 1 << 40
		build := testing.AllocsPerRun(20, func() {
			unheld.Seed++
			if _, err := BuildEnv(unheld); err != nil {
				t.Fatal(err)
			}
		})
		if build > tc.build {
			t.Errorf("BuildEnv(%s) of a table nobody holds allocates %v times, want at most %v", tc.spec.Kind, build, tc.build)
		}

		held, err := BuildEnv(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		lookup := testing.AllocsPerRun(20, func() {
			if _, err := BuildEnv(tc.spec); err != nil {
				t.Fatal(err)
			}
		})
		runtime.KeepAlive(held)
		if lookup > 1 {
			t.Errorf("BuildEnv(%s) with the table held allocates %v times, want at most 1", tc.spec.Kind, lookup)
		}
	}
}

// FuzzCampaignSpec feeds arbitrary bytes through the server's spec decoder:
// json.Unmarshal into a CampaignSpec, then Validate. Nothing panics; a spec
// that validates re-encodes to bytes that decode to the same spec; and
// BuildEnv, valid spec or not, returns an environment or an error, never
// both and never neither.
func FuzzCampaignSpec(f *testing.F) {
	f.Add([]byte(`{"id":"tf-1","env":{"kind":"tensorflow","name":"cnn","seed":42},"tuner":{"lookahead":2},"options":{"budget":30,"max_runtime_seconds":600,"seed":7}}`))
	f.Add([]byte(`{"id":"sim.2","env":{"kind":"servesim","name":"batch","seed":3},"tuner":{"myopic":true},"options":{"budget":5,"max_runtime_seconds":900,"extra_constraints":[{"Metric":"slo_violation","Max":0.1}]}}`))
	f.Add([]byte(`{"id":"faulty","env":{"kind":"scout","name":"hibench-sort","seed":9,"faults":{"seed":4,"transient_rate":0.2,"straggler_rate":0.1,"permanent_ids":[3,5],"crash_at_run":7}},"options":{"budget":10,"retry":{"max_attempts":3,"quarantine":true}}}`))
	f.Add([]byte(`{"id":"bad-faults","env":{"kind":"tensorflow","name":"cnn","faults":{"transient_rate":2}}}`))
	f.Add([]byte("\x00{\"id\":[}garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec CampaignSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		if env, err := BuildEnv(spec.Env); (env == nil) == (err == nil) {
			t.Fatalf("BuildEnv(%+v) = %v, %v: want exactly one of an environment and an error", spec.Env, env, err)
		}
		if spec.Validate() != nil {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("Marshal of a valid spec: %v", err)
		}
		var again CampaignSpec
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("decoding the re-encoded spec %s: %v", enc, err)
		}
		// omitempty drops an empty list, which decodes as nil: the two mean
		// the same.
		if !reflect.DeepEqual(emptyListsNil(spec), emptyListsNil(again)) {
			t.Fatalf("spec %+v re-encodes to %s, which decodes to %+v", spec, enc, again)
		}
	})
}

// emptyListsNil returns spec with its empty omitempty lists set to nil.
func emptyListsNil(spec CampaignSpec) CampaignSpec {
	if len(spec.Options.ExtraConstraints) == 0 {
		spec.Options.ExtraConstraints = nil
	}
	if f := spec.Env.Faults; f != nil && len(f.PermanentIDs) == 0 {
		faults := *f
		faults.PermanentIDs = nil
		spec.Env.Faults = &faults
	}
	return spec
}
