// Package serve is the transport and robustness layer of the multi-campaign
// tuning server (cmd/lynceus-serve): an HTTP/JSON API over the stepwise
// campaign engine (StartTunerShared / ResumeTunerShared) with per-client
// token-bucket rate limiting, a bounded admission queue that sheds load
// instead of queueing unboundedly, per-campaign panic isolation, a context
// deadline cancelling steps that overrun it, write-ahead snapshotting
// after every completed step, and graceful drain. The durable unit is the
// campaign snapshot: a kill -9 at any point loses at most the in-flight
// step, and a restarted server rescans its state directory and resumes
// every campaign bitwise.
package serve

import (
	"fmt"
	"maps"
	"regexp"
	"slices"
	"time"

	lynceus "repro"
	"repro/internal/faults"
)

// EnvSpec names an environment the server can rebuild from scratch on
// restart. Environments must be reconstructible from data — a snapshot
// cannot carry live Go objects across a process boundary — so the server
// accepts a closed set of kinds instead of arbitrary Environment values.
type EnvSpec struct {
	// Kind selects the environment family: "tensorflow" (synthetic lookup
	// table job; Name is cnn, rnn or multilayer), "scout" (synthetic
	// Hadoop/Spark job; Name is the job name) or "servesim" (stochastic
	// serving-cluster simulation; Name is the profile: chat, code or batch).
	Kind string `json:"kind"`
	// Name selects the job or profile within the kind.
	Name string `json:"name"`
	// Seed drives the environment's data generation or noise streams.
	Seed int64 `json:"seed"`
	// Faults, when non-nil, wraps the environment with deterministic fault
	// injection (transient failures, stragglers, broken configurations) —
	// the robustness-testing hook the chaos tests drive.
	Faults *faults.Params `json:"faults,omitempty"`
}

// RetrySpec is the serializable retry policy (durations in milliseconds).
type RetrySpec struct {
	MaxAttempts   int   `json:"max_attempts,omitempty"`
	TimeoutMS     int64 `json:"timeout_ms,omitempty"`
	BackoffBaseMS int64 `json:"backoff_base_ms,omitempty"`
	BackoffMaxMS  int64 `json:"backoff_max_ms,omitempty"`
	Quarantine    bool  `json:"quarantine,omitempty"`
}

// OptionsSpec is the serializable subset of lynceus.Options (SetupCost
// functions cannot travel over the wire; campaigns needing one must be
// driven in-process).
type OptionsSpec struct {
	Budget            float64              `json:"budget"`
	MaxRuntimeSeconds float64              `json:"max_runtime_seconds"`
	BootstrapSize     int                  `json:"bootstrap_size,omitempty"`
	Seed              int64                `json:"seed"`
	ExtraConstraints  []lynceus.Constraint `json:"extra_constraints,omitempty"`
	Retry             RetrySpec            `json:"retry"`
}

// TunerSpec is the serializable lynceus.TunerConfig.
type TunerSpec struct {
	Lookahead        int     `json:"lookahead,omitempty"`
	Myopic           bool    `json:"myopic,omitempty"`
	Discount         float64 `json:"discount,omitempty"`
	GHOrder          int     `json:"gh_order,omitempty"`
	EnsembleTrees    int     `json:"ensemble_trees,omitempty"`
	CostModel        string  `json:"cost_model,omitempty"`
	Workers          int     `json:"workers,omitempty"`
	SearchStrategy   string  `json:"search_strategy,omitempty"`
	SearchSampleSize int     `json:"search_sample_size,omitempty"`
	SpeculativeRefit string  `json:"speculative_refit,omitempty"`
}

// CampaignSpec is everything the server persists to recreate a campaign
// from nothing: the environment recipe, the tuner configuration, and the
// run options. The snapshot (written separately, after every step) carries
// the campaign's progress; the spec carries its definition.
type CampaignSpec struct {
	ID      string      `json:"id"`
	Env     EnvSpec     `json:"env"`
	Tuner   TunerSpec   `json:"tuner"`
	Options OptionsSpec `json:"options"`
}

// idPattern constrains campaign IDs to path- and filename-safe tokens (they
// name state subdirectories and URL segments).
var idPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// ValidID reports whether id is an acceptable campaign ID.
func ValidID(id string) bool { return idPattern.MatchString(id) }

// Validate checks the spec. The tuner and option values are validated by
// the engine at campaign construction; this checks what the server itself
// relies on.
func (s CampaignSpec) Validate() error {
	if !ValidID(s.ID) {
		return fmt.Errorf("serve: invalid campaign ID %q (want %s)", s.ID, idPattern)
	}
	if envKinds[s.Env.Kind] == nil {
		return unknownKind(s.Env.Kind)
	}
	if s.Env.Faults != nil {
		if err := s.Env.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TunerConfig converts the wire spec to the engine configuration.
func (s TunerSpec) TunerConfig() lynceus.TunerConfig {
	return lynceus.TunerConfig{
		Lookahead:     s.Lookahead,
		Myopic:        s.Myopic,
		Discount:      s.Discount,
		GHOrder:       s.GHOrder,
		EnsembleTrees: s.EnsembleTrees,
		CostModel:     s.CostModel,
		Workers:       s.Workers,
		Search: lynceus.SearchConfig{
			Strategy:   s.SearchStrategy,
			SampleSize: s.SearchSampleSize,
		},
		SpeculativeRefit: s.SpeculativeRefit,
	}
}

// Options converts the wire spec to the engine options.
func (s OptionsSpec) Options() lynceus.Options {
	return lynceus.Options{
		Budget:            s.Budget,
		MaxRuntimeSeconds: s.MaxRuntimeSeconds,
		BootstrapSize:     s.BootstrapSize,
		Seed:              s.Seed,
		ExtraConstraints:  s.ExtraConstraints,
		Retry: lynceus.RetryPolicy{
			MaxAttempts: s.Retry.MaxAttempts,
			Timeout:     time.Duration(s.Retry.TimeoutMS) * time.Millisecond,
			BackoffBase: time.Duration(s.Retry.BackoffBaseMS) * time.Millisecond,
			BackoffMax:  time.Duration(s.Retry.BackoffMaxMS) * time.Millisecond,
			Quarantine:  s.Retry.Quarantine,
		},
	}
}

// BuildEnv reconstructs the environment named by the spec. Reconstruction is
// deterministic — the same spec always yields an environment with identical
// behavior — which is what lets a restarted server resume campaigns bitwise:
// the snapshot restores the environment's mutable state, the spec rebuilds
// everything else.
func BuildEnv(spec EnvSpec) (lynceus.Environment, error) {
	build := envKinds[spec.Kind]
	if build == nil {
		return nil, unknownKind(spec.Kind)
	}
	inner, err := build(spec.Name, spec.Seed)
	if err != nil {
		return nil, err
	}
	if spec.Faults != nil {
		// Not returned directly: a failed wrap's nil *FaultyEnvironment
		// would come back as a non-nil Environment beside the error.
		faulty, err := lynceus.NewFaultyEnvironment(inner, *spec.Faults)
		if err != nil {
			return nil, err
		}
		return faulty, nil
	}
	return inner, nil
}

// envKinds maps every environment kind the server accepts to the function
// that builds its (fault-free) environment from a name and a seed.
var envKinds = map[string]func(name string, seed int64) (lynceus.Environment, error){
	"tensorflow": func(name string, seed int64) (lynceus.Environment, error) {
		job, err := lynceus.SyntheticTensorflowJob(name, seed)
		if err != nil {
			return nil, err
		}
		return lynceus.NewJobEnvironment(job)
	},
	"scout": func(name string, seed int64) (lynceus.Environment, error) {
		job, err := lynceus.SyntheticScoutJob(name, seed)
		if err != nil {
			return nil, err
		}
		return lynceus.NewJobEnvironment(job)
	},
	"servesim": func(name string, seed int64) (lynceus.Environment, error) {
		return lynceus.NewServingEnvironment(name, seed)
	},
}

// unknownKind is the error for an environment kind envKinds does not list.
func unknownKind(kind string) error {
	return fmt.Errorf("serve: unknown environment kind %q (want one of %v)", kind, slices.Sorted(maps.Keys(envKinds)))
}
