// Package vfs is the file seam under the storage engine: every file the
// store, backup and full-text sidecar write, rename, remove or sync goes
// through an FS, so a test can substitute a filesystem that fails or loses
// power (internal/faultfs) where production uses the OS. It is a leaf
// package so that both the store and its fault injector can import it.
package vfs

import (
	iofs "io/fs"
	"os"
)

// File is an open file. Access is positional only: the store never relies
// on a file offset, so there is no Seek, Read or Write.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	// Sync makes the file's contents durable.
	Sync() error
	// Size returns the current file length.
	Size() (int64, error)
	Close() error
}

// FS is the set of filesystem operations the store makes.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(from, to string) error
	Remove(name string) error
	RemoveAll(path string) error
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(dir string) ([]iofs.DirEntry, error)
	// SyncDir makes the directory's entries durable: the creates, renames
	// and removes made in it so far survive a power loss.
	SyncDir(dir string) error
}

// OS is the FS backed by the operating system.
var OS FS = osFS{}

type osFS struct{}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(from, to string) error                 { return os.Rename(from, to) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(dir string) ([]iofs.DirEntry, error)  { return os.ReadDir(dir) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
