package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/atomicfile"
)

// Store is the server's durable state directory: one subdirectory per
// campaign holding spec.json (the campaign's definition, written once at
// admission) and snapshot.json (its progress, rewritten after every
// completed step). Every write goes through atomicfile.Write (same-directory
// temp file, fsync, rename), so a kill -9 at any instant leaves either the
// old or the new file — never a truncated one. That atomic-rename discipline is
// the write-ahead layer the crash-recovery guarantee rests on: restart
// loses at most the step that had not yet renamed its snapshot into place.
type Store struct {
	dir string
}

const (
	specFile     = "spec.json"
	snapshotFile = "snapshot.json"
)

// OpenStore opens (creating if needed) the state directory and sweeps
// leftover temp files from a previous crash mid-write.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("serve: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating state directory: %w", err)
	}
	s := &Store{dir: dir}
	// Orphaned temp files are dead by construction (the rename never
	// happened); removing them keeps rescans clean.
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), atomicfile.TempPrefix) {
			_ = os.Remove(path)
		}
		return nil
	})
	return s, nil
}

func (s *Store) campaignDir(id string) string { return filepath.Join(s.dir, id) }

// PutSpec persists a campaign's definition (idempotent; called once at
// admission, before the campaign is acknowledged to the client). The state
// directory is synced after the campaign directory is created, so a power
// cut after the acknowledgement cannot drop the campaign's entry.
func (s *Store) PutSpec(spec CampaignSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(spec, "", " ")
	if err != nil {
		return fmt.Errorf("serve: encoding spec %q: %w", spec.ID, err)
	}
	dir := s.campaignDir(spec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: creating campaign directory %q: %w", spec.ID, err)
	}
	atomicfile.SyncDir(s.dir)
	return atomicfile.Write(filepath.Join(dir, specFile), data)
}

// PutSnapshot durably replaces a campaign's snapshot.
func (s *Store) PutSnapshot(id string, snapshot []byte) error {
	if !ValidID(id) {
		return fmt.Errorf("serve: invalid campaign ID %q", id)
	}
	return atomicfile.Write(filepath.Join(s.campaignDir(id), snapshotFile), snapshot)
}

// Snapshot reads a campaign's snapshot; ok is false when none has been
// written yet (a campaign admitted but never stepped).
func (s *Store) Snapshot(id string) (data []byte, ok bool, err error) {
	data, err = os.ReadFile(filepath.Join(s.campaignDir(id), snapshotFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("serve: reading snapshot %q: %w", id, err)
	}
	return data, true, nil
}

// Specs rescans the state directory and returns every persisted campaign
// definition in ID order — the restart path: the server rebuilds each
// environment from its spec and resumes from its snapshot.
func (s *Store) Specs() ([]CampaignSpec, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: scanning state directory: %w", err)
	}
	var specs []CampaignSpec
	for _, e := range entries {
		if !e.IsDir() || !ValidID(e.Name()) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, e.Name(), specFile))
		if errors.Is(err, fs.ErrNotExist) {
			// A campaign directory without a spec is a crash between MkdirAll
			// and the spec rename; the campaign was never acknowledged, so
			// skipping it is correct.
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("serve: reading spec of %q: %w", e.Name(), err)
		}
		var spec CampaignSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("serve: decoding spec of %q: %w", e.Name(), err)
		}
		if spec.ID != e.Name() {
			return nil, fmt.Errorf("serve: spec in directory %q claims ID %q", e.Name(), spec.ID)
		}
		specs = append(specs, spec)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].ID < specs[j].ID })
	return specs, nil
}

// Remove deletes a campaign's state, syncing the state directory so that a
// power cut cannot bring the campaign back.
func (s *Store) Remove(id string) error {
	if !ValidID(id) {
		return fmt.Errorf("serve: invalid campaign ID %q", id)
	}
	if err := os.RemoveAll(s.campaignDir(id)); err != nil {
		return err
	}
	atomicfile.SyncDir(s.dir)
	return nil
}
