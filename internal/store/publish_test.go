package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestPublish: a publish replaces the target; a failed write leaves the
// target's old bytes and the temp file, exactly as a kill would; and the
// next publish is unaffected by that leftover.
func TestPublish(t *testing.T) {
	path := filepath.Join(t.TempDir(), "file")
	publish := func(data string) error {
		return Publish(path, func(f *os.File) error {
			_, err := f.WriteString(data)
			return err
		})
	}
	expect := func(want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("target holds %q (err %v), want %q", got, err, want)
		}
	}
	if err := publish("first version"); err != nil {
		t.Fatal(err)
	}
	expect("first version")

	failed := errors.New("write failed")
	err := Publish(path, func(f *os.File) error {
		if _, err := f.WriteString("a long half-written second version"); err != nil {
			return err
		}
		return failed
	})
	if !errors.Is(err, failed) {
		t.Fatalf("failed publish returned %v, want the write's error", err)
	}
	expect("first version")
	if _, err := os.Stat(path + ".tmp"); err != nil {
		t.Fatalf("failed publish left no temp file: %v", err)
	}

	if err := publish("third"); err != nil {
		t.Fatal(err)
	}
	expect("third")
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file survives a successful publish: %v", err)
	}
}
