package main

import (
	"fmt"

	lynceus "repro"
	"repro/internal/serve"
)

// inputs generates a workload's campaign specs from the run seed. The same
// (workload, seed) always gives the same specs; the server only ever sees
// the generated specs.
type inputs struct {
	w    *workload
	seed int64
	// tmax is the runtime constraint (50% of the space feasible) and
	// meanCost the mean run cost the budget is a multiple of.
	tmax, meanCost float64
	extra          []lynceus.Constraint
}

// tensorflowSeed pins the Tensorflow dataset to the repo's ("cnn", 42) job;
// -seed varies campaigns, options and environment noise, not the dataset.
const tensorflowSeed = 42

func newInputs(w *workload, seed int64) (*inputs, error) {
	in := &inputs{w: w, seed: seed}
	switch w.kind {
	case "tensorflow":
		job, err := lynceus.SyntheticTensorflowJob(w.envName, tensorflowSeed)
		if err != nil {
			return nil, err
		}
		if in.tmax, err = job.RuntimeForFeasibleFraction(0.5); err != nil {
			return nil, err
		}
		in.meanCost = job.MeanCost()
	case "servesim":
		env, err := lynceus.NewServingEnvironment(w.envName, 0)
		if err != nil {
			return nil, err
		}
		// ApproxStats draws from streams that do not depend on the
		// environment seed, so one call serves every campaign.
		if in.tmax, in.meanCost, err = env.ApproxStats(0.5, 96); err != nil {
			return nil, err
		}
		in.extra = []lynceus.Constraint{env.Constraint()}
	default:
		return nil, fmt.Errorf("workload %s: unknown environment kind %q", w.name, w.kind)
	}
	return in, nil
}

// mix64 is the splitmix64 finalizer, used to derive independent seeds.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// groupSeed derives the seed of one campaign group: a function of the run
// seed, the workload and the group, positive so it reads well in specs.
func (in *inputs) groupSeed(group int, stream uint64) int64 {
	h := mix64(uint64(in.seed))
	for _, c := range []byte(in.w.name) {
		h = mix64(h ^ uint64(c))
	}
	h = mix64(h ^ uint64(group))
	h = mix64(h ^ stream)
	return int64(h >> 1)
}

// groupSpec is the spec shared by every campaign of a group, without an ID.
func (in *inputs) groupSpec(group int) serve.CampaignSpec {
	envSeed := int64(tensorflowSeed)
	if in.w.kind == "servesim" {
		envSeed = in.groupSeed(group, 1)
	}
	return serve.CampaignSpec{
		Env:   serve.EnvSpec{Kind: in.w.kind, Name: in.w.envName, Seed: envSeed},
		Tuner: in.w.tuner,
		Options: serve.OptionsSpec{
			Budget:            in.w.budgetFactor * float64(in.w.bootstrap) * in.meanCost,
			MaxRuntimeSeconds: in.tmax,
			BootstrapSize:     in.w.bootstrap,
			Seed:              in.groupSeed(group, 0),
			ExtraConstraints:  in.extra,
		},
	}
}

// spec is campaign i of the workload's unbounded campaign list.
func (in *inputs) spec(i int) serve.CampaignSpec {
	s := in.groupSpec(in.w.group(i))
	s.ID = fmt.Sprintf("c%06d", i)
	return s
}

// warmSpec is the set-up campaign that leads a group's decisions.
func (in *inputs) warmSpec(group int) serve.CampaignSpec {
	s := in.groupSpec(group)
	s.ID = fmt.Sprintf("warm%03d", group)
	return s
}
