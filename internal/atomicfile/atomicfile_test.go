package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	for _, want := range []string{"first", "second, longer than the first", ""} {
		if err := Write(path, []byte(want)); err != nil {
			t.Fatalf("Write(%q): %v", want, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("read back %q, want %q", got, want)
		}
	}
	assertOnly(t, filepath.Dir(path), "snapshot.json")
}

// A failed write must leave neither a temp file nor a changed target behind:
// here the rename fails because the target is a non-empty directory.
func TestWriteErrorLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "snapshot.json")
	if err := os.MkdirAll(filepath.Join(target, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Write(target, []byte("data")); err == nil {
		t.Fatal("Write onto a non-empty directory succeeded")
	}
	assertOnly(t, dir, "snapshot.json")
	if _, err := os.Stat(filepath.Join(target, "occupied")); err != nil {
		t.Fatalf("the failed write disturbed its target: %v", err)
	}

	// A missing parent directory fails before any temp file exists.
	if err := Write(filepath.Join(dir, "missing", "snapshot.json"), []byte("data")); err == nil {
		t.Fatal("Write into a missing directory succeeded")
	}
	assertOnly(t, dir, "snapshot.json")
}

func assertOnly(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != name {
			t.Errorf("%s holds %q besides %q", dir, e.Name(), name)
		}
	}
}
