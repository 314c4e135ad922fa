// Package atomicio provides crash-safe file replacement: content is written
// to a temporary file in the destination directory, fsynced, and renamed
// over the destination, so a crash, SIGKILL, or full disk at any point
// leaves either the old file or the new one — never a truncated hybrid.
// The durability layer (graph snapshots, journal manifests) and every
// CLI that writes outputs worth keeping route their writes through here.
package atomicio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with the bytes produced by write. The
// writer passed to write is buffered; on success the temp file is fsynced
// before the rename and the directory is fsynced after it, so the
// replacement survives power loss. On any error (including one returned by
// write) the destination is untouched and the temp file is removed.
func WriteFile(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<16)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("atomicio: flush %s: %w", tmp.Name(), err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("atomicio: fsync %s: %w", tmp.Name(), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: close %s: %w", tmp.Name(), err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a just-created or just-renamed entry in it
// survives power loss. Filesystems that refuse to fsync directories are
// tolerated silently: the rename itself is still atomic there.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !ignorableSyncError(err) {
		return fmt.Errorf("atomicio: fsync dir %s: %w", dir, err)
	}
	return nil
}
