package serve

import "testing"

// BenchmarkBuildEnv measures rebuilding one environment from its spec, the
// per-campaign cost of PutSpec and of a restart's rescan. The lookup-table
// kinds generate one noise draw per configuration; servesim builds a
// simulator without a table.
func BenchmarkBuildEnv(b *testing.B) {
	for _, spec := range []EnvSpec{
		{Kind: "tensorflow", Name: "cnn", Seed: 42},
		{Kind: "scout", Name: "hibench-sort", Seed: 42},
		{Kind: "servesim", Name: "batch", Seed: 42},
	} {
		b.Run(spec.Kind, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := BuildEnv(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
