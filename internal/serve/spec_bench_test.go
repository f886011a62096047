package serve

import (
	"runtime"
	"testing"
)

// BenchmarkBuildEnv measures building one environment from its spec when no
// other campaign holds its lookup table, the per-campaign cost of PutSpec
// and of a restart's rescan for campaigns on tables of their own. Each op
// of a lookup-table kind asks for a seed nobody has asked for, so it
// generates the table and publishes it to internal/synth's shared map;
// servesim builds a simulator, which has no table.
func BenchmarkBuildEnv(b *testing.B) {
	for _, spec := range []EnvSpec{
		{Kind: "tensorflow", Name: "cnn", Seed: 1 << 41},
		{Kind: "scout", Name: "hibench-sort", Seed: 1 << 41},
		{Kind: "servesim", Name: "batch", Seed: 42},
	} {
		b.Run(spec.Kind, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if spec.Kind != "servesim" {
					spec.Seed++
				}
				if _, err := BuildEnv(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildEnvShared measures the same for a campaign whose spec names
// a table another campaign holds, as on a rescan of campaigns that share a
// spec: the table is looked up, not generated.
func BenchmarkBuildEnvShared(b *testing.B) {
	for _, spec := range []EnvSpec{
		{Kind: "tensorflow", Name: "cnn", Seed: 42},
		{Kind: "scout", Name: "hibench-sort", Seed: 42},
	} {
		b.Run(spec.Kind, func(b *testing.B) {
			held, err := BuildEnv(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := BuildEnv(spec); err != nil {
					b.Fatal(err)
				}
			}
			runtime.KeepAlive(held)
		})
	}
}
