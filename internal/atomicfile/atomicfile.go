// Package atomicfile is the repository's one durable file writer: the
// tuning server's state store and lynceus-tune's -checkpoint both persist
// campaign snapshots through it, so "survives kill -9 and a power cut" means
// the same thing on both paths.
package atomicfile

import (
	"os"
	"path/filepath"
)

// TempPrefix starts the name of every in-flight temp file Write creates
// (always in the target's directory). A temp file that outlives its Write —
// a crash before the rename — is dead by construction, so owners of a
// directory may sweep names with this prefix on startup.
const TempPrefix = ".tmp-"

// Write replaces the file at path with data via same-directory temp file +
// fsync + rename + directory fsync. The rename makes the write atomic (a
// crash at any instant leaves the old file or the new one, never a truncated
// one); the fsync before it is what upgrades "atomic" to "durable": once
// Write returns, the bytes survive a power cut, not just a process kill. On
// any error the temp file is removed and path is untouched.
func Write(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, TempPrefix+"*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		if serr != nil {
			return serr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	SyncDir(dir)
	return nil
}

// SyncDir persists the entries of directory dir — a file renamed into it, a
// subdirectory created or removed in it — which fsync(2) leaves to a sync of
// the directory itself. Filesystems that refuse to sync directories are
// ignored.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
