package servesim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden servesim trace files")

// goldenTrace pins an entire simulation run: the aggregate result plus the
// event-by-event trace. Any behavioural change to the event loop — admission
// order, step timing, KV accounting — shows up as a diff against the pinned
// file.
type goldenTrace struct {
	Scenario   string       `json:"scenario"`
	Deployment Deployment   `json:"deployment"`
	Seed       int64        `json:"seed"`
	Result     Result       `json:"result"`
	Events     []TraceEvent `json:"events"`
}

func goldenCases() []struct {
	name string
	s    Scenario
	d    Deployment
	seed int64
} {
	tiny := Scenario{
		Name: "tiny",
		Classes: []SLOClass{
			{Name: "fast", Share: 0.6, LatencySLO: 2, PromptMin: 16, PromptMax: 48, OutputMin: 4, OutputMax: 10},
			{Name: "slow", Share: 0.4, LatencySLO: 8, PromptMin: 48, PromptMax: 96, OutputMin: 12, OutputMax: 24},
		},
		ArrivalRate:     4,
		Requests:        12,
		QueuePerReplica: 4,
		StepBase:        0.030,
		StepPerSeq:      0.004,
		PrefillPerToken: 0.0004,
		NoiseSpread:     0.15,
		MaxSLOViolation: 0.1,
	}
	congested := tiny
	congested.Name = "congested"
	congested.ArrivalRate = 10
	congested.Requests = 16
	congested.QueuePerReplica = 2
	return []struct {
		name string
		s    Scenario
		d    Deployment
		seed int64
	}{
		{
			name: "fifo",
			s:    tiny,
			d:    Deployment{Replicas: 2, Type: Catalog[0], MaxBatch: 4, Policy: FIFO},
			seed: 11,
		},
		{
			name: "slo_priority",
			s:    congested,
			d:    Deployment{Replicas: 1, Type: Catalog[1], MaxBatch: 8, Policy: SLOPriority},
			seed: 23,
		},
		{
			name: "shortest_queue",
			s:    congested,
			d:    Deployment{Replicas: 3, Type: Catalog[0], MaxBatch: 2, Policy: ShortestQueue},
			seed: 37,
		},
	}
}

// TestGoldenTraces replays one small seeded scenario per scheduler policy and
// compares its full event trace against a pinned file. Regenerate with:
//
//	go test ./internal/servesim -run TestGoldenTraces -update-golden
func TestGoldenTraces(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			var events []TraceEvent
			res, err := Simulate(tc.s, tc.d, tc.seed, &events)
			if err != nil {
				t.Fatalf("Simulate: %v", err)
			}
			got := goldenTrace{
				Scenario:   tc.s.Name,
				Deployment: tc.d,
				Seed:       tc.seed,
				Result:     res,
				Events:     events,
			}
			path := filepath.Join("testdata", "golden_servesim_"+tc.name+".json")
			if *updateGolden {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatalf("mkdir: %v", err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				t.Logf("wrote %s (%d events)", path, len(events))
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update-golden to create): %v", err)
			}
			var want goldenTrace
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("unmarshal golden: %v", err)
			}
			if !reflect.DeepEqual(got.Result, want.Result) {
				t.Errorf("result drifted from golden:\n got %+v\nwant %+v", got.Result, want.Result)
			}
			if len(got.Events) != len(want.Events) {
				t.Fatalf("trace has %d events, golden has %d", len(got.Events), len(want.Events))
			}
			for i := range got.Events {
				if got.Events[i] != want.Events[i] {
					t.Fatalf("event %d drifted:\n got %+v\nwant %+v", i, got.Events[i], want.Events[i])
				}
			}
		})
	}
}
