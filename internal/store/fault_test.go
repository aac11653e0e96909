package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/nsf"
	"repro/internal/vfs"
)

// failOnce makes fs fail the first operation match accepts with err and
// reports whether it did.
func failOnce(fs *faultfs.FS, err error, match func(faultfs.Op) bool) (fired func() bool) {
	var mu sync.Mutex
	done := false
	fs.Inject(func(op faultfs.Op) error {
		mu.Lock()
		defer mu.Unlock()
		if !done && match(op) {
			done = true
			return err
		}
		return nil
	})
	return func() bool {
		mu.Lock()
		defer mu.Unlock()
		return done
	}
}

// putDocs puts n new notes and returns their UNIDs.
func putDocs(t *testing.T, s *Store, n int, tag string) []nsf.UNID {
	t.Helper()
	var unids []nsf.UNID
	for i := 0; i < n; i++ {
		note := gcNote(nsf.Timestamp(i+1), fmt.Sprintf("%s-%d", tag, i))
		note.SetText("Body", strings.Repeat("b", 300+i%7*100))
		if err := s.Put(note); err != nil {
			t.Fatalf("put %s-%d: %v", tag, i, err)
		}
		unids = append(unids, note.OID.UNID)
	}
	return unids
}

// reopenHolds reopens the database at path on opts' FS and requires every
// acked note readable and the store to pass Verify.
func reopenHolds(t *testing.T, path string, opts Options, acked []nsf.UNID) *Store {
	t.Helper()
	s, err := Open(path, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	for i, u := range acked {
		if _, err := getByUNID(s, u); err != nil {
			t.Fatalf("acked note %d of %d lost: %v", i, len(acked), err)
		}
	}
	if problems := s.Verify(); len(problems) != 0 {
		t.Fatalf("reopened store fails verification: %v", problems)
	}
	return s
}

// TestSyncsPerCommit counts fsyncs: a lone SyncWAL put costs one, a put
// without SyncWAL none, and a checkpoint a fixed three — the page-image
// frame, the page file, and the WAL reset — plus, with archiving, the
// sealed segment's publish (one file sync and one directory sync). A put writes its
// WAL frame and nothing else; a checkpoint writes each dirty page twice,
// once as an image and once in place.
func TestSyncsPerCommit(t *testing.T) {
	for _, archive := range []bool{false, true} {
		t.Run(fmt.Sprintf("archive=%v", archive), func(t *testing.T) {
			fs := faultfs.New(1)
			var mu sync.Mutex
			dirSyncs := 0
			fs.Inject(func(op faultfs.Op) error {
				mu.Lock()
				defer mu.Unlock()
				if op.Kind == faultfs.OpSyncDir {
					dirSyncs++
				}
				return nil
			})
			cost := func(fn func()) (syncs, dirs, written int64) {
				s0, w0 := fs.Syncs(), fs.BytesWritten()
				mu.Lock()
				d0 := dirSyncs
				mu.Unlock()
				fn()
				mu.Lock()
				defer mu.Unlock()
				return fs.Syncs() - s0, int64(dirSyncs - d0), fs.BytesWritten() - w0
			}
			dir := t.TempDir()
			opts := Options{SyncWAL: true, CheckpointEvery: -1, FS: fs}
			if archive {
				opts.ArchiveDir = filepath.Join(dir, "walog")
			}
			s, err := Open(filepath.Join(dir, "sync.nsf"), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 3; i++ {
				wal0 := s.Stats().WALBytes
				syncs, dirs, written := cost(func() { putDocs(t, s, 1, fmt.Sprint("sync", i)) })
				if syncs != 1 || dirs != 0 || written != s.Stats().WALBytes-wal0 {
					t.Fatalf("SyncWAL put %d: %d syncs, %d dir syncs, %d bytes; want 1, 0 and its %d-byte WAL frame",
						i, syncs, dirs, written, s.Stats().WALBytes-wal0)
				}
			}
			dirty, walBytes := int64(s.Stats().DirtyPages), s.Stats().WALBytes
			syncs, dirs, written := cost(func() {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			})
			wantSyncs, wantDirs := int64(3), int64(0)
			wantWritten := 8 + 9 + (dirty+1)*pageImageSize + (dirty+1)*PageSize
			if archive {
				wantSyncs, wantDirs = 4, 1
				wantWritten += segHeaderSize + walBytes
			}
			if syncs != wantSyncs || dirs != wantDirs {
				t.Fatalf("checkpoint of %d dirty pages: %d syncs, %d dir syncs; want %d and %d", dirty, syncs, dirs, wantSyncs, wantDirs)
			}
			if written != wantWritten {
				t.Fatalf("checkpoint of %d dirty pages wrote %d bytes, want %d (images, then pages in place)", dirty, written, wantWritten)
			}

			s2, err := Open(filepath.Join(dir, "nosync.nsf"), Options{CheckpointEvery: -1, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if syncs, _, _ := cost(func() { putDocs(t, s2, 5, "nosync") }); syncs != 0 {
				t.Fatalf("5 puts without SyncWAL cost %d syncs, want 0", syncs)
			}
		})
	}
}

// TestFailedPageSyncRewritesPages fails the page file's fsync during a
// checkpoint. The failed sync drops the page writes it covered, so the next
// checkpoint must write those pages again before it resets the WAL; marking
// them clean at write time would lose every note they held.
func TestFailedPageSyncRewritesPages(t *testing.T) {
	fs := faultfs.New(1)
	path := filepath.Join(t.TempDir(), "eio.nsf")
	opts := Options{CheckpointEvery: -1, FS: fs}
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	acked := putDocs(t, s, 100, "first")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	acked = append(acked, putDocs(t, s, 10, "second")...)
	fired := failOnce(fs, syscall.EIO, func(op faultfs.Op) bool { return op.Kind == faultfs.OpSync && op.Path == path })
	if err := s.Checkpoint(); !errors.Is(err, syscall.EIO) || !fired() {
		t.Fatalf("checkpoint over a failing page sync returned %v", err)
	}
	fs.Inject(nil)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the failure: %v", err)
	}
	fs.Crash()
	s.Close()
	reopenHolds(t, path, opts, acked)
}

// TestCheckpointPageWriteENOSPC fails a page write in place with ENOSPC:
// the checkpoint fails with pages half-overwritten and its image frame left
// in the log, the store keeps committing, and after a power loss every
// acked note is back and the archive is dense and free of the images.
func TestCheckpointPageWriteENOSPC(t *testing.T) {
	fs := faultfs.New(2)
	dir := t.TempDir()
	path := filepath.Join(dir, "enospc.nsf")
	opts := Options{SyncWAL: true, CheckpointEvery: -1, ArchiveDir: filepath.Join(dir, "walog"), FS: fs}
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	acked := putDocs(t, s, 60, "first")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	acked = append(acked, putDocs(t, s, 60, "second")...)
	writes := 0
	fired := failOnce(fs, syscall.ENOSPC, func(op faultfs.Op) bool {
		if op.Kind == faultfs.OpWrite && op.Path == path {
			writes++
		}
		return writes == 3
	})
	if err := s.Checkpoint(); !errors.Is(err, syscall.ENOSPC) || !fired() {
		t.Fatalf("checkpoint over a full disk returned %v", err)
	}
	fs.Inject(nil)
	acked = append(acked, putDocs(t, s, 10, "third")...)
	fs.Crash()
	s.Close()
	s2 := reopenHolds(t, path, opts, acked)
	segs, err := ListSegments(vfs.OS, opts.ArchiveDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if _, err := VerifySegment(vfs.OS, seg); err != nil {
			t.Fatal(err)
		}
	}
	last, err := ScanArchive(vfs.OS, opts.ArchiveDir, 0, 0, func(rec walRecord) error {
		if rec.Kind != walPut {
			return fmt.Errorf("archive carries a record of kind %d", rec.Kind)
		}
		return nil
	})
	if err != nil || last != s2.LastUSN() {
		t.Fatalf("archive reaches USN %d (err %v), store %d", last, err, s2.LastUSN())
	}
}

// TestGroupCommitWALSyncEIO fails one group-commit fsync of the WAL under
// concurrent committers (no checkpoints, so every WAL sync is a commit's):
// no commit in that batch is acknowledged, the log refuses further commits,
// and after a power loss acked ⊆ recovered ⊆ attempted.
func TestGroupCommitWALSyncEIO(t *testing.T) {
	fs := faultfs.New(3)
	path := filepath.Join(t.TempDir(), "walsync.nsf")
	opts := Options{SyncWAL: true, GroupCommitWindow: 100 * time.Microsecond, CheckpointEvery: -1, FS: fs}
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	syncs := 0
	fired := failOnce(fs, syscall.EIO, func(op faultfs.Op) bool {
		if op.Kind == faultfs.OpSync && op.Path == path+".wal" {
			syncs++
		}
		return syncs == 10 // each writer waits for its ack, so 160 puts take at least 20 syncs
	})
	const writers, puts = 8, 20
	var mu sync.Mutex
	attempted := map[nsf.UNID]bool{}
	var acked []nsf.UNID
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				n := gcNote(nsf.Timestamp(w*1000+i+1), fmt.Sprintf("w%d-%d", w, i))
				mu.Lock()
				attempted[n.OID.UNID] = true
				mu.Unlock()
				if err := s.Put(n); err != nil {
					return
				}
				mu.Lock()
				acked = append(acked, n.OID.UNID)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if !fired() || len(acked) == writers*puts {
		t.Fatalf("the WAL sync failure fired %v and %d of %d puts were acked", fired(), len(acked), writers*puts)
	}
	if err := s.Put(gcNote(1, "after")); err == nil {
		t.Fatal("a commit was acknowledged after the log failed to sync")
	}
	fs.Inject(nil)
	fs.Crash()
	s.Close()
	s2 := reopenHolds(t, path, opts, acked)
	scanAll(s2, func(n *nsf.Note) bool {
		if !attempted[n.OID.UNID] {
			t.Fatalf("recovered a note never attempted: %s", n.Text("Subject"))
		}
		return true
	})
}

// TestCompactInstallRenameFails fails each of Install's two renames during
// Compact. The store reopens whichever pair the failure left and keeps
// working, and after a power loss every acked note is back.
func TestCompactInstallRenameFails(t *testing.T) {
	for _, suffix := range []string{".compact", ".compact.wal"} {
		t.Run(suffix, func(t *testing.T) {
			fs := faultfs.New(4)
			path := filepath.Join(t.TempDir(), "swap.nsf")
			opts := Options{SyncWAL: true, CheckpointEvery: -1, FS: fs}
			s, err := Open(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			acked := putDocs(t, s, 80, "before")
			for _, u := range acked[:40] {
				if err := s.Delete(u); err != nil {
					t.Fatal(err)
				}
			}
			acked = acked[40:]
			fired := failOnce(fs, syscall.EIO, func(op faultfs.Op) bool {
				return op.Kind == faultfs.OpRename && op.Path == path+suffix
			})
			if _, err := s.Compact(); !errors.Is(err, syscall.EIO) || !fired() {
				t.Fatalf("compact over a failing rename returned %v", err)
			}
			fs.Inject(nil)
			acked = append(acked, putDocs(t, s, 10, "after")...)
			if problems := s.Verify(); len(problems) != 0 {
				t.Fatalf("store after the failed compaction: %v", problems)
			}
			fs.Crash()
			s.Close()
			reopenHolds(t, path, opts, acked)
		})
	}
}

// TestSealPublishRenameFails fails the rename that publishes an archived
// segment: the checkpoint fails and keeps its WAL, the next one seals it,
// and the archive stays dense through a power loss.
func TestSealPublishRenameFails(t *testing.T) {
	fs := faultfs.New(5)
	dir := t.TempDir()
	path := filepath.Join(dir, "seal.nsf")
	opts := Options{SyncWAL: true, CheckpointEvery: -1, ArchiveDir: filepath.Join(dir, "walog"), FS: fs}
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	acked := putDocs(t, s, 20, "first")
	fired := failOnce(fs, syscall.EIO, func(op faultfs.Op) bool { return op.Kind == faultfs.OpRename })
	if err := s.Checkpoint(); !errors.Is(err, syscall.EIO) || !fired() {
		t.Fatalf("checkpoint over a failing segment publish returned %v", err)
	}
	fs.Inject(nil)
	acked = append(acked, putDocs(t, s, 20, "second")...)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	acked = append(acked, putDocs(t, s, 5, "third")...)
	fs.Crash()
	s.Close()
	s2 := reopenHolds(t, path, opts, acked)
	last, err := ScanArchive(vfs.OS, opts.ArchiveDir, 0, 0, func(walRecord) error { return nil })
	if err != nil || last != s2.LastUSN() {
		t.Fatalf("archive reaches USN %d (err %v), store %d", last, err, s2.LastUSN())
	}
}
