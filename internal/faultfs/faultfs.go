// Package faultfs is a vfs.FS for crash and fault tests, the sibling of
// faultnet. It passes every operation through to real files and keeps its
// own record of what is durable: the writes and truncates made to each file
// since its last Sync, and the creates and renames made in each directory
// since its last SyncDir. Sync never calls the OS fsync; it only moves that
// line.
//
// Kill models the death of the process: every open handle fails from then
// on, and the bytes stay on disk as written. Crash models a power loss: a
// Kill, then every file rolls back to its last Sync, keeping a seeded
// subset of the writes made since (each whole, dropped, or cut at a
// 512-byte boundary), and every create or rename no SyncDir covered is
// undone. Inject fails any single operation, and may itself call Kill or
// Crash, which is how a test crashes at the n-th file operation.
//
// Directories are not modelled: MkdirAll, Remove and RemoveAll are durable
// at once.
package faultfs

import (
	"cmp"
	"errors"
	iofs "io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/vfs"
)

// ErrKilled is returned by every operation on a handle opened before a
// Kill or Crash.
var ErrKilled = errors.New("faultfs: process killed")

// Kind names a file operation.
type Kind int

// The operations an Inject hook sees.
const (
	OpOpen Kind = iota
	OpRead
	OpWrite
	OpTruncate
	OpSync
	OpSize
	OpClose
	OpRename
	OpRemove
	OpRemoveAll
	OpMkdirAll
	OpReadDir
	OpSyncDir
)

// Op describes one operation: its kind, the path it names (a rename's
// source), and for reads, writes and truncates the offset and length.
type Op struct {
	Kind     Kind
	Path     string
	Off, Len int64
}

// FS is a fault-injecting filesystem over the real one.
type FS struct {
	mu      sync.Mutex
	rng     *rand.Rand
	inject  func(Op) error
	files   map[string]*record // by current path
	open    map[*file]struct{}
	names   []nameOp // creates and renames no SyncDir has covered, oldest first
	syncs   int64
	written int64
}

// record is what a file has not yet made durable.
type record struct {
	changes []change // writes and truncates since the last Sync, oldest first
}

// change is one write (data != nil) or truncate, with what it replaced: the
// file's previous size and the bytes it overwrote or cut off, at off.
type change struct {
	off, size, oldSize int64
	data, old          []byte
}

// nameOp is a create (from == "") or a rename, undone by a Crash unless a
// SyncDir of dir covers it. displaced holds the rename target's previous
// bytes (nil when there was none).
type nameOp struct {
	dir, from, to string
	displaced     []byte
}

// New returns an FS whose Crash draws from seed.
func New(seed int64) *FS {
	return &FS{rng: rand.New(rand.NewSource(seed)), files: map[string]*record{}, open: map[*file]struct{}{}}
}

// Inject installs fn to be consulted before every operation; a non-nil
// return fails that operation with it. A failed Sync drops the writes it
// covered, as Linux does after an fsync error. Nil removes the hook.
func (fs *FS) Inject(fn func(Op) error) {
	fs.mu.Lock()
	fs.inject = fn
	fs.mu.Unlock()
}

// Syncs returns the number of successful file Syncs.
func (fs *FS) Syncs() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.syncs
}

// BytesWritten returns the bytes written through WriteAt.
func (fs *FS) BytesWritten() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.written
}

func (fs *FS) hook(op Op) error {
	fs.mu.Lock()
	fn := fs.inject
	fs.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(op)
}

// Kill fails every handle opened so far. Files opened later work, like a
// restarted process's.
func (fs *FS) Kill() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.killLocked()
}

func (fs *FS) killLocked() {
	for h := range fs.open {
		h.dead = true
		h.f.Close()
	}
	fs.open = map[*file]struct{}{}
}

// Crash is a Kill followed by a power loss: see the package comment.
func (fs *FS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.killLocked()
	paths := make([]string, 0, len(fs.files))
	for p := range fs.files {
		paths = append(paths, p)
	}
	sort.Strings(paths) // the seed alone decides what survives
	for _, p := range paths {
		fs.rollback(p, fs.files[p], true)
	}
	for i := len(fs.names) - 1; i >= 0; i-- {
		n := fs.names[i]
		if n.from == "" {
			os.Remove(n.to)
			continue
		}
		if os.Rename(n.to, n.from) == nil && n.displaced != nil {
			os.WriteFile(n.to, n.displaced, 0o644)
		}
	}
	fs.files, fs.names = map[string]*record{}, nil
}

// rollback returns the file at path to its last Sync, then replays either
// none of the changes since (a failed Sync) or a seeded subset (a Crash).
func (fs *FS) rollback(path string, r *record, subset bool) {
	if len(r.changes) == 0 {
		return
	}
	d, err := os.ReadFile(path)
	if err != nil {
		return
	}
	for i := len(r.changes) - 1; i >= 0; i-- {
		c := r.changes[i]
		d = resize(d, c.oldSize)
		copy(d[min(c.off, c.oldSize):], c.old)
	}
	for _, c := range r.changes {
		if !subset {
			break
		}
		keep := fs.rng.Intn(3) // 0 drop, 1 whole, 2 cut
		switch {
		case keep == 0:
		case c.data == nil:
			d = resize(d, c.size)
		default:
			data := c.data
			if first := (c.off/512 + 1) * 512; keep == 2 {
				end := c.off + int64(len(data))
				if first >= end {
					continue
				}
				cut := first + 512*fs.rng.Int63n((end-1-first)/512+1)
				data = data[:cut-c.off]
			}
			d = resize(d, max(int64(len(d)), c.off+int64(len(data))))
			copy(d[c.off:], data)
		}
	}
	os.WriteFile(path, d, 0o644)
	r.changes = nil
}

func resize(d []byte, n int64) []byte {
	if n <= int64(len(d)) {
		return d[:n]
	}
	return append(d, make([]byte, n-int64(len(d)))...)
}

func (fs *FS) record(path string) *record {
	r := fs.files[path]
	if r == nil {
		r = &record{}
		fs.files[path] = r
	}
	return r
}

// OpenFile opens name. O_TRUNC is a recorded truncate; a create is a
// recorded name until its directory is synced.
func (fs *FS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	name = filepath.Clean(name)
	if err := fs.hook(Op{Kind: OpOpen, Path: name}); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, statErr := os.Stat(name)
	f, err := os.OpenFile(name, flag&^os.O_TRUNC, perm)
	if err != nil {
		return nil, err
	}
	if errors.Is(statErr, iofs.ErrNotExist) {
		fs.names = append(fs.names, nameOp{dir: filepath.Dir(name), to: name})
	}
	h := &file{fs: fs, f: f, name: name, rec: fs.record(name)}
	if flag&os.O_TRUNC != 0 {
		if err := h.truncateLocked(0); err != nil {
			f.Close()
			return nil, err
		}
	}
	fs.open[h] = struct{}{}
	return h, nil
}

// Rename moves from onto to, remembering to's bytes so a Crash can put
// them back.
func (fs *FS) Rename(from, to string) error {
	from, to = filepath.Clean(from), filepath.Clean(to)
	if err := fs.hook(Op{Kind: OpRename, Path: from}); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	displaced, _ := os.ReadFile(to)
	if err := os.Rename(from, to); err != nil {
		return err
	}
	fs.files[to] = fs.record(from)
	delete(fs.files, from)
	fs.names = append(fs.names, nameOp{dir: filepath.Dir(to), from: from, to: to, displaced: displaced})
	return nil
}

// Remove deletes name.
func (fs *FS) Remove(name string) error {
	name = filepath.Clean(name)
	if err := fs.hook(Op{Kind: OpRemove, Path: name}); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.files, name)
	return os.Remove(name)
}

// RemoveAll deletes path and everything below it.
func (fs *FS) RemoveAll(path string) error {
	path = filepath.Clean(path)
	if err := fs.hook(Op{Kind: OpRemoveAll, Path: path}); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for p := range fs.files {
		if p == path || strings.HasPrefix(p, path+string(filepath.Separator)) {
			delete(fs.files, p)
		}
	}
	return os.RemoveAll(path)
}

// MkdirAll creates path and its parents.
func (fs *FS) MkdirAll(path string, perm os.FileMode) error {
	if err := fs.hook(Op{Kind: OpMkdirAll, Path: path}); err != nil {
		return err
	}
	return os.MkdirAll(path, perm)
}

// ReadDir lists dir.
func (fs *FS) ReadDir(dir string) ([]iofs.DirEntry, error) {
	if err := fs.hook(Op{Kind: OpReadDir, Path: dir}); err != nil {
		return nil, err
	}
	return os.ReadDir(dir)
}

// SyncDir makes the creates and renames made in dir durable.
func (fs *FS) SyncDir(dir string) error {
	dir = filepath.Clean(dir)
	if err := fs.hook(Op{Kind: OpSyncDir, Path: dir}); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	kept := fs.names[:0]
	for _, n := range fs.names {
		if n.dir != dir {
			kept = append(kept, n)
		}
	}
	fs.names = kept
	return nil
}

// file is a handle. Its record follows the file through renames.
type file struct {
	fs   *FS
	f    *os.File
	name string
	rec  *record
	dead bool
}

// do consults the hook, then runs fn under the FS latch unless the handle
// was killed.
func (h *file) do(op Op, fn func() error) error {
	op.Path = h.name
	if err := h.fs.hook(op); err != nil {
		return err
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.dead {
		return ErrKilled
	}
	return fn()
}

func (h *file) size() (int64, error) {
	info, err := h.f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

func (h *file) ReadAt(p []byte, off int64) (n int, err error) {
	derr := h.do(Op{Kind: OpRead, Off: off, Len: int64(len(p))}, func() error {
		n, err = h.f.ReadAt(p, off)
		return nil
	})
	if derr != nil {
		return 0, derr
	}
	return n, err
}

func (h *file) WriteAt(p []byte, off int64) (n int, err error) {
	err = h.do(Op{Kind: OpWrite, Off: off, Len: int64(len(p))}, func() error {
		size, err := h.size()
		if err != nil {
			return err
		}
		old := make([]byte, max(0, min(off+int64(len(p)), size)-off))
		if _, err := h.f.ReadAt(old, off); err != nil {
			return err
		}
		n, err = h.f.WriteAt(p, off)
		h.rec.changes = append(h.rec.changes, change{off: off, oldSize: size, data: append([]byte{}, p[:n]...), old: old})
		h.fs.written += int64(n)
		return err
	})
	return n, err
}

func (h *file) Truncate(size int64) error {
	return h.do(Op{Kind: OpTruncate, Off: size}, func() error { return h.truncateLocked(size) })
}

func (h *file) truncateLocked(size int64) error {
	oldSize, err := h.size()
	if err != nil {
		return err
	}
	old := make([]byte, max(0, oldSize-size))
	if _, err := h.f.ReadAt(old, size); err != nil && len(old) > 0 {
		return err
	}
	if err := h.f.Truncate(size); err != nil {
		return err
	}
	h.rec.changes = append(h.rec.changes, change{off: min(size, oldSize), size: size, oldSize: oldSize, old: old})
	return nil
}

func (h *file) Sync() error {
	err := h.do(Op{Kind: OpSync}, func() error {
		h.rec.changes = nil
		h.fs.syncs++
		return nil
	})
	if err != nil && !errors.Is(err, ErrKilled) {
		h.fs.mu.Lock()
		h.fs.rollback(h.name, h.rec, false)
		h.fs.mu.Unlock()
	}
	return err
}

func (h *file) Size() (n int64, err error) {
	err = h.do(Op{Kind: OpSize}, func() error {
		n, err = h.size()
		return err
	})
	return n, err
}

// Close releases the descriptor even when it fails, as close(2) does.
func (h *file) Close() error {
	err := h.fs.hook(Op{Kind: OpClose, Path: h.name})
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.dead {
		return cmp.Or(err, ErrKilled)
	}
	delete(h.fs.open, h)
	h.dead = true
	if cerr := h.f.Close(); err == nil {
		err = cerr
	}
	return err
}
