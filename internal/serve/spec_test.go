package serve

import "testing"

// TestBuildEnvAllocs ratchets what rebuilding a lookup-table environment
// allocates, the per-campaign cost of PutSpec and of a restart's rescan: a
// constant that does not depend on the table's 384 (tensorflow) or 72
// (scout) rows. The bounds are the counts measured, with and without the
// race detector, when the tables went column-wise; one allocation per
// configuration would add hundreds. Scout's
// bound is higher because every build constructs its space and looks up its
// nine VM types, where the Tensorflow table shares both.
func TestBuildEnvAllocs(t *testing.T) {
	for _, tc := range []struct {
		spec  EnvSpec
		bound float64
	}{
		{EnvSpec{Kind: "tensorflow", Name: "cnn", Seed: 42}, 8},
		{EnvSpec{Kind: "scout", Name: "hibench-sort", Seed: 42}, 54},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := BuildEnv(tc.spec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.bound {
			t.Errorf("BuildEnv(%s) allocates %v times, want at most %v", tc.spec.Kind, allocs, tc.bound)
		}
	}
}
