package dataset

import (
	"bytes"
	"maps"
	"math"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	job := testJob(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, job); err != nil {
		t.Fatalf("WriteCSV error: %v", err)
	}
	parsed, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV error: %v", err)
	}
	if parsed.Name() != job.Name() {
		t.Errorf("round-trip name = %q, want %q", parsed.Name(), job.Name())
	}
	if parsed.TimeoutSeconds() != job.TimeoutSeconds() {
		t.Errorf("round-trip timeout = %v, want %v", parsed.TimeoutSeconds(), job.TimeoutSeconds())
	}
	if parsed.Size() != job.Size() {
		t.Fatalf("round-trip size = %d, want %d", parsed.Size(), job.Size())
	}

	// The space may be re-enumerated in a different ID order; compare by
	// describing each configuration.
	origByDesc := make(map[string]Measurement)
	for _, m := range job.Measurements() {
		cfg, err := job.Space().Config(m.ConfigID)
		if err != nil {
			t.Fatalf("Config error: %v", err)
		}
		origByDesc[job.Space().Describe(cfg)] = m
	}
	for _, m := range parsed.Measurements() {
		cfg, err := parsed.Space().Config(m.ConfigID)
		if err != nil {
			t.Fatalf("Config error: %v", err)
		}
		desc := parsed.Space().Describe(cfg)
		orig, ok := origByDesc[desc]
		if !ok {
			t.Fatalf("configuration %q missing from original job", desc)
		}
		if math.Abs(m.RuntimeSeconds-orig.RuntimeSeconds) > 1e-9 {
			t.Errorf("%q runtime = %v, want %v", desc, m.RuntimeSeconds, orig.RuntimeSeconds)
		}
		if math.Abs(m.Cost-orig.Cost) > 1e-9 {
			t.Errorf("%q cost = %v, want %v", desc, m.Cost, orig.Cost)
		}
		// Both extra metrics survive the round trip bit for bit.
		got, want := parsed.Extra(m.ConfigID), job.Extra(orig.ConfigID)
		if len(got) != 2 || !maps.Equal(got, want) {
			t.Errorf("%q extra metrics = %v, want %v", desc, got, want)
		}
	}
}

func TestWriteCSVNilJob(t *testing.T) {
	if err := WriteCSV(&bytes.Buffer{}, nil); err == nil {
		t.Error("WriteCSV(nil) should error")
	}
}

func TestReadCSVComputesCostWhenMissing(t *testing.T) {
	csvText := `# job=mini
# timeout_seconds=600
vm,workers,runtime_seconds,unit_price_per_hour
small,2,3600,0.5
small,4,1800,1.0
large,2,1200,2.0
large,4,900,4.0
`
	job, err := ReadCSV(strings.NewReader(csvText))
	if err != nil {
		t.Fatalf("ReadCSV error: %v", err)
	}
	if job.Name() != "mini" {
		t.Errorf("name = %q", job.Name())
	}
	if job.Size() != 4 {
		t.Fatalf("size = %d, want 4", job.Size())
	}
	for _, m := range job.Measurements() {
		want := m.RuntimeSeconds / 3600 * m.UnitPricePerHour
		if math.Abs(m.Cost-want) > 1e-12 {
			t.Errorf("config %d cost = %v, want derived %v", m.ConfigID, m.Cost, want)
		}
	}
	// The "vm" dimension is non-numeric, so it must have labels.
	dims := job.Space().Dimensions()
	foundVM := false
	for _, d := range dims {
		if d.Name == "vm" {
			foundVM = true
			if len(d.Labels) != 2 {
				t.Errorf("vm dimension labels = %v", d.Labels)
			}
		}
		if d.Name == "workers" {
			if len(d.Values) != 2 || d.Values[0] != 2 || d.Values[1] != 4 {
				t.Errorf("workers values = %v, want [2 4]", d.Values)
			}
		}
	}
	if !foundVM {
		t.Error("vm dimension missing")
	}
}

func TestReadCSVSparseSpace(t *testing.T) {
	// Only 3 of the 4 combinations are present: the space must contain
	// exactly the observed configurations, as in the Scout dataset where
	// larger VM sizes cap the cluster size.
	csvText := `vm,workers,runtime_seconds,unit_price_per_hour
small,2,3600,0.5
small,4,1800,1.0
large,2,1200,2.0
`
	job, err := ReadCSV(strings.NewReader(csvText))
	if err != nil {
		t.Fatalf("ReadCSV error: %v", err)
	}
	if job.Size() != 3 {
		t.Errorf("size = %d, want 3 (sparse space)", job.Size())
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		text string
	}{
		{name: "empty", text: ""},
		{name: "header only", text: "a,runtime_seconds,unit_price_per_hour\n"},
		{name: "missing price", text: "a,runtime_seconds\n1,10\n"},
		{name: "missing runtime", text: "a,unit_price_per_hour\n1,10\n"},
		{name: "no dimensions", text: "runtime_seconds,unit_price_per_hour\n10,1\n"},
		{name: "bad runtime", text: "a,runtime_seconds,unit_price_per_hour\n1,zzz,1\n"},
		{name: "bad price", text: "a,runtime_seconds,unit_price_per_hour\n1,10,zzz\n"},
		{name: "bad timeout comment", text: "# timeout_seconds=abc\na,runtime_seconds,unit_price_per_hour\n1,10,1\n"},
		{name: "duplicate row", text: "a,runtime_seconds,unit_price_per_hour\n1,10,1\n1,20,1\n"},
		{name: "bad timed_out", text: "a,runtime_seconds,unit_price_per_hour,timed_out\n1,10,1,maybe\n"},
		{name: "bad extra", text: "a,runtime_seconds,unit_price_per_hour,extra_energy\n1,10,1,zzz\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tt.text)); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
}

func TestReadCSVTimedOutColumn(t *testing.T) {
	csvText := `a,runtime_seconds,unit_price_per_hour,cost,timed_out
1,600,1,0.1667,true
2,300,1,0.0833,false
`
	job, err := ReadCSV(strings.NewReader(csvText))
	if err != nil {
		t.Fatalf("ReadCSV error: %v", err)
	}
	timedOutCount := 0
	for _, m := range job.Measurements() {
		if m.TimedOut {
			timedOutCount++
		}
	}
	if timedOutCount != 1 {
		t.Errorf("timed-out count = %d, want 1", timedOutCount)
	}
}
