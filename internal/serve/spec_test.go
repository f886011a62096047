package serve

import (
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
