package faultfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func create(t *testing.T, fs *FS, path string) *file {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return f.(*file)
}

func write(t *testing.T, f *file, b []byte, off int64) {
	t.Helper()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func contents(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return b
}

// TestKill: a killed handle fails every operation and the bytes it wrote
// stay; a file opened afterwards works.
func TestKill(t *testing.T) {
	fs := New(1)
	path := filepath.Join(t.TempDir(), "f")
	f := create(t, fs, path)
	write(t, f, []byte("written, never synced"), 0)
	fs.Kill()
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrKilled) {
		t.Fatalf("write on a killed handle: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrKilled) {
		t.Fatalf("sync on a killed handle: %v", err)
	}
	if got := string(contents(t, path)); got != "written, never synced" {
		t.Fatalf("kill changed the file: %q", got)
	}
	g := create(t, fs, path)
	defer g.Close()
	write(t, g, []byte("W"), 0)
	if got := string(contents(t, path)); got != "Written, never synced" {
		t.Fatalf("write after restart: %q", got)
	}
}

// TestCrashKeepsSyncedBytes: over many seeds a crash keeps every synced
// byte the later writes did not touch, and each later write survives whole,
// not at all, or as a prefix ending on a 512-byte boundary.
func TestCrashKeepsSyncedBytes(t *testing.T) {
	synced := bytes.Repeat([]byte{'s'}, 4096)
	later := bytes.Repeat([]byte{'n'}, 2000)
	const off = 1000
	shapes := map[int]bool{}
	for seed := int64(0); seed < 40; seed++ {
		fs := New(seed)
		path := filepath.Join(t.TempDir(), "f")
		f := create(t, fs, path)
		write(t, f, synced, 0)
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := fs.SyncDir(filepath.Dir(path)); err != nil {
			t.Fatal(err)
		}
		write(t, f, later, off)
		fs.Crash()
		got := contents(t, path)
		if len(got) != len(synced) {
			t.Fatalf("seed %d: crash changed the size to %d", seed, len(got))
		}
		n := bytes.IndexByte(got, 'n')
		if n < 0 {
			shapes[0] = true
			n = off
		}
		end := n + bytes.Count(got, []byte{'n'})
		if n != off || !bytes.Equal(got[:off], synced[:off]) || !bytes.Equal(got[end:], synced[end:]) {
			t.Fatalf("seed %d: synced bytes lost or the write moved", seed)
		}
		if end != off && end != off+len(later) && end%512 != 0 {
			t.Fatalf("seed %d: the write was cut at %d, not on a sector boundary", seed, end)
		}
		shapes[end-off] = true
	}
	if len(shapes) < 3 {
		t.Fatalf("40 crashes left only %d shapes of the write; want dropped, whole and torn", len(shapes))
	}
}

// TestCrashUndoesUnsyncedNames: a create or rename no SyncDir covered is
// undone, the rename's target getting its old bytes back; a covered one
// stays.
func TestCrashUndoesUnsyncedNames(t *testing.T) {
	fs := New(1)
	dir := t.TempDir()
	kept, lost, target := filepath.Join(dir, "kept"), filepath.Join(dir, "lost"), filepath.Join(dir, "target")
	for _, p := range []string{kept, target} {
		f := create(t, fs, p)
		write(t, f, []byte("old "+filepath.Base(p)), 0)
		f.Sync()
		f.Close()
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	f := create(t, fs, lost)
	write(t, f, []byte("new"), 0)
	f.Sync()
	f.Close()
	if err := fs.Rename(lost, target); err != nil {
		t.Fatal(err)
	}
	if got := string(contents(t, target)); got != "new" {
		t.Fatalf("rename target holds %q", got)
	}
	fs.Crash()
	if got := string(contents(t, target)); got != "old target" {
		t.Fatalf("after the crash the rename target holds %q, want its old bytes", got)
	}
	if _, err := os.Stat(lost); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("an unsynced create survived the crash: %v", err)
	}
	if got := string(contents(t, kept)); got != "old kept" {
		t.Fatalf("a synced file holds %q after the crash", got)
	}
}

// TestInjectedSyncFailureDropsWrites: a Sync the hook fails returns its
// error and drops the writes it would have made durable; the counters see
// only what succeeded.
func TestInjectedSyncFailureDropsWrites(t *testing.T) {
	fs := New(1)
	path := filepath.Join(t.TempDir(), "f")
	f := create(t, fs, path)
	write(t, f, []byte("durable"), 0)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	write(t, f, []byte("DUR"), 0)
	fs.Inject(func(op Op) error {
		if op.Kind == OpSync {
			return syscall.EIO
		}
		return nil
	})
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync returned %v, want EIO", err)
	}
	fs.Inject(nil)
	if got := string(contents(t, path)); got != "durable" {
		t.Fatalf("failed sync left %q, want the synced bytes", got)
	}
	if fs.Syncs() != 1 || fs.BytesWritten() != 10 {
		t.Fatalf("counters: %d syncs, %d bytes; want 1 and 10", fs.Syncs(), fs.BytesWritten())
	}
	f.Close()
}
