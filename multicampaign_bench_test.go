package lynceus

import (
	"fmt"
	"testing"

	"repro/internal/optimizer"
)

// BenchmarkMultiCampaignThroughput measures batch campaign throughput: one
// op runs 8 identical Tensorflow-384 LA=2 incremental campaigns to
// completion through the MultiRunner, shared versus share-nothing. The
// campaigns are replicas (same environment instance, seed and budget) — the
// multi-tenant tuning regime the sharing tier targets, where one campaign
// leads every planning decision and the others adopt it from the group's
// decision cache. Results are bitwise identical across the two modes (pinned by
// TestMultiRunnerDisableSharing); only the work to produce them differs.
//
// ns/campaign (total time over campaigns completed) is the gated metric;
// campaigns/sec is reported for readability. The acceptance bar of the
// sharing tier is shared >= 1.5x the share-nothing campaigns/sec on the
// single-core bench box.
func BenchmarkMultiCampaignThroughput(b *testing.B) {
	const campaigns = 8
	job, err := SyntheticTensorflowJob("cnn", 42)
	if err != nil {
		b.Fatalf("SyntheticTensorflowJob: %v", err)
	}
	env, err := NewJobEnvironment(job)
	if err != nil {
		b.Fatalf("NewJobEnvironment: %v", err)
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		b.Fatalf("RuntimeForFeasibleFraction: %v", err)
	}
	bootstrap, err := optimizer.ResolveBootstrapSize(job.Space(), Options{Budget: 1, MaxRuntimeSeconds: 1})
	if err != nil {
		b.Fatalf("ResolveBootstrapSize: %v", err)
	}
	opts := Options{
		Budget:            float64(bootstrap) * job.MeanCost() * 1.35,
		MaxRuntimeSeconds: tmax,
		Seed:              1,
	}
	cfg := TunerConfig{Lookahead: 2, SpeculativeRefit: "incremental"}

	for _, mode := range []struct {
		name           string
		disableSharing bool
	}{
		{name: "shared", disableSharing: false},
		{name: "isolated", disableSharing: true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runner := NewMultiRunner(MultiRunnerConfig{DisableSharing: mode.disableSharing})
				for c := 0; c < campaigns; c++ {
					if err := runner.Add(fmt.Sprintf("c%d", c), cfg, env, opts); err != nil {
						b.Fatalf("Add: %v", err)
					}
				}
				summary, err := runner.Run()
				if err != nil {
					b.Fatalf("Run: %v", err)
				}
				for _, r := range summary.Results {
					if r.Err != nil {
						b.Fatalf("campaign %s: %v", r.Name, r.Err)
					}
				}
			}
			total := float64(b.N * campaigns)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/campaign")
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(total/s, "campaigns/sec")
			}
		})
	}
}
