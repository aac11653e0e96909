package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// Durable publication. Every file the system makes durably visible reaches
// its name through one of the two functions below, so there is one answer
// to "what can a crash leave behind":
//
//   - Publish (archived WAL segments, backup images, restore staging files,
//     the full-text sidecar) writes path+".tmp", fsyncs and closes it,
//     renames it onto path and fsyncs the directory. A reader sees the old
//     file or the complete new one, never a mix. A failure at any step
//     leaves the temp file exactly as a kill would: every reader ignores
//     *.tmp, and the next Publish of the same path truncates it.
//   - Install (Compact's swap, Restore's publish) renames a closed, synced
//     database — page file and WAL — onto a database path and fsyncs the
//     directory.

// Publish makes the bytes write produces durably visible at path. write
// receives the truncated temp file; its error is returned unwrapped.
func Publish(path string, write func(f *os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: publish %s: %w", path, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("store: publish %s: %w", path, err)
	}
	return syncDir(filepath.Dir(path))
}

// Install moves the database at from (page file and WAL, both closed and
// fsynced) onto path and fsyncs path's directory. The page file moves
// first, and a crash between the renames leaves the new page file beside
// the WAL previously at path, so that WAL must be empty (Compact
// checkpoints before the swap) or absent (Restore).
func Install(from, path string) error {
	for _, suffix := range []string{"", ".wal"} {
		if err := os.Rename(from+suffix, path+suffix); err != nil {
			return fmt.Errorf("store: install %s: %w", path+suffix, err)
		}
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}
