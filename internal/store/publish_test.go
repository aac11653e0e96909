package store

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/vfs"
)

// TestPublish: a publish replaces the target; a failed write or a failed
// rename leaves the target's old bytes and the temp file, exactly as a kill
// would; and the next publish is unaffected by that leftover.
func TestPublish(t *testing.T) {
	fs := faultfs.New(1)
	path := filepath.Join(t.TempDir(), "file")
	publish := func(data string) error {
		return Publish(fs, path, func(f vfs.File) error {
			_, err := f.WriteAt([]byte(data), 0)
			return err
		})
	}
	expect := func(want string, tmp bool) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("target holds %q (err %v), want %q", got, err, want)
		}
		if _, err := os.Stat(path + ".tmp"); (err == nil) != tmp {
			t.Fatalf("temp file present = %v, want %v", err == nil, tmp)
		}
	}
	if err := publish("first version"); err != nil {
		t.Fatal(err)
	}
	expect("first version", false)

	failed := errors.New("write failed")
	err := Publish(fs, path, func(f vfs.File) error {
		if _, err := f.WriteAt([]byte("a long half-written second version"), 0); err != nil {
			return err
		}
		return failed
	})
	if !errors.Is(err, failed) {
		t.Fatalf("failed publish returned %v, want the write's error", err)
	}
	expect("first version", true)

	fs.Inject(func(op faultfs.Op) error {
		if op.Kind == faultfs.OpRename {
			return syscall.EIO
		}
		return nil
	})
	if err := publish("second"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("publish over a failing rename returned %v", err)
	}
	fs.Inject(nil)
	expect("first version", true)

	if err := publish("third"); err != nil {
		t.Fatal(err)
	}
	expect("third", false)
	// Published and its directory synced: a power loss keeps it.
	fs.Crash()
	expect("third", false)
}
