package core

import (
	"testing"

	"repro/internal/optimizer"
	"repro/internal/synth"
)

// snapshotBenchCampaign runs a paper-scale Tensorflow-384 LA=1 campaign to
// completion and returns the Lynceus instance, environment and options needed
// to resume its snapshot.
func snapshotBenchCampaign(tb testing.TB) (*Lynceus, optimizer.Environment, *Campaign) {
	tb.Helper()
	job, err := synth.TensorflowJob(synth.CNN, 42)
	if err != nil {
		tb.Fatalf("TensorflowJob: %v", err)
	}
	env, err := optimizer.NewJobEnvironment(job)
	if err != nil {
		tb.Fatalf("NewJobEnvironment: %v", err)
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		tb.Fatalf("RuntimeForFeasibleFraction: %v", err)
	}
	bootstrap, err := optimizer.ResolveBootstrapSize(job.Space(), optimizer.Options{Budget: 1, MaxRuntimeSeconds: 1})
	if err != nil {
		tb.Fatalf("ResolveBootstrapSize: %v", err)
	}
	opts := optimizer.Options{
		Budget:            float64(bootstrap) * job.MeanCost() * 1.3,
		MaxRuntimeSeconds: tmax,
		Seed:              7,
	}
	l, err := New(Params{Lookahead: 1})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	campaign, err := l.NewCampaign(env, opts, nil)
	if err != nil {
		tb.Fatalf("NewCampaign: %v", err)
	}
	if _, err := campaign.Run(); err != nil {
		tb.Fatalf("Run: %v", err)
	}
	return l, env, campaign
}

// BenchmarkSnapshotRestore tracks the two halves of the checkpointing path on
// a completed paper-scale campaign: op=snapshot serializes the campaign state
// (options, cursors, one record per trial), op=restore parses, validates and
// rebuilds a runnable campaign from those bytes. Both must stay
// cheap relative to one planning decision — checkpointing every step is the
// intended usage (see cmd/lynceus-tune -checkpoint), so a regression here
// taxes every trial of every fault-tolerant campaign.
func BenchmarkSnapshotRestore(b *testing.B) {
	l, env, campaign := snapshotBenchCampaign(b)
	snap, err := campaign.Snapshot()
	if err != nil {
		b.Fatalf("Snapshot: %v", err)
	}
	b.Run("op=snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := campaign.Snapshot(); err != nil {
				b.Fatalf("Snapshot: %v", err)
			}
		}
	})
	b.Run("op=restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resumed, err := l.ResumeCampaign(env, snap, ResumeFuncs{}, nil)
			if err != nil {
				b.Fatalf("ResumeCampaign: %v", err)
			}
			if !resumed.Done() {
				b.Fatal("resumed campaign not done")
			}
		}
	})
}
