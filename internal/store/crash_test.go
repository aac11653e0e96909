package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/nsf"
)

// dieAt makes fs die at its n-th operation from now: a power loss when
// crash is set, else a process kill. That operation and every later one
// fail, as a dead process makes no more; fs.Inject(nil) restarts it. fired
// reports whether it happened.
func dieAt(fs *faultfs.FS, n int, crash bool) (fired func() bool) {
	var mu sync.Mutex
	seen := 0
	fs.Inject(func(faultfs.Op) error {
		mu.Lock()
		defer mu.Unlock()
		if seen++; seen == n {
			die(fs, crash)
		}
		if seen >= n {
			return faultfs.ErrKilled
		}
		return nil
	})
	return func() bool {
		mu.Lock()
		defer mu.Unlock()
		return seen >= n
	}
}

// die cuts fs's power when crash is set, else kills its process.
func die(fs *faultfs.FS, crash bool) {
	if crash {
		fs.Crash()
	} else {
		fs.Kill()
	}
}

// TestCrashPointFuzz drives random put/update/delete workloads on a faultfs,
// dies at a random file operation (so some deaths fall inside checkpoints),
// reopens, and checks the recovered state against a shadow model of the
// acknowledged operations. Every seed runs twice: with SyncWAL off and a
// process kill, which keeps every byte written, and with SyncWAL on and a
// power loss, which keeps only what was synced (and tears the rest). Either
// way an acknowledged operation survives; the one in flight at the death
// may or may not.
func TestCrashPointFuzz(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, crash := range []bool{false, true} {
				t.Run(fmt.Sprintf("crash=%v", crash), func(t *testing.T) {
					runCrashFuzz(t, seed, crash)
				})
			}
		})
	}
}

type modelDoc struct {
	subject string
	body    int // body payload size, to vary record shapes
}

// crashWorkload is one seed's workload on fs. It stops at the first failed
// operation and returns the model of the acknowledged operations, in alt
// that model with the failed operation applied, and the failure.
func crashWorkload(t *testing.T, seed int64, path string, opts Options) (model, alt map[nsf.UNID]modelDoc, unids []nsf.UNID, err error) {
	rng := rand.New(rand.NewSource(seed))
	model = make(map[nsf.UNID]modelDoc)
	s, err := Open(path, opts)
	if err != nil {
		return model, model, nil, err
	}
	defer s.Close()
	ops := 100 + rng.Intn(300)
	for i := 0; i < ops; i++ {
		ts := nsf.Timestamp(i + 1)
		var u nsf.UNID
		var doc *modelDoc
		switch r := rng.Intn(10); {
		case r < 5 || len(unids) == 0: // create
			n := nsf.NewNote(nsf.ClassDocument)
			n.OID.Seq = 1
			n.OID.SeqTime = ts
			n.Modified = ts
			body := rng.Intn(6000)
			n.SetText("Subject", fmt.Sprintf("doc-%d-%d", seed, i))
			n.SetText("Body", string(make([]byte, body)))
			u, doc = n.OID.UNID, &modelDoc{subject: n.Text("Subject"), body: body}
			unids = append(unids, u)
			err = s.Put(n)
		case r < 8: // update
			u = unids[rng.Intn(len(unids))]
			if _, ok := model[u]; !ok {
				continue
			}
			body := rng.Intn(6000)
			doc = &modelDoc{subject: fmt.Sprintf("upd-%d-%d", seed, i), body: body}
			var n *nsf.Note
			if n, err = getByUNID(s, u); err == nil {
				n.SetText("Subject", doc.subject)
				n.SetText("Body", string(make([]byte, body)))
				n.Modified = ts
				err = s.Put(n)
			}
		default: // delete
			u = unids[rng.Intn(len(unids))]
			if _, ok := model[u]; !ok {
				continue
			}
			err = s.Delete(u)
		}
		next := maps.Clone(model)
		if doc != nil {
			next[u] = *doc
		} else {
			delete(next, u)
		}
		if err != nil {
			return model, next, unids, err
		}
		model = next
	}
	return model, model, unids, nil
}

func runCrashFuzz(t *testing.T, seed int64, crash bool) {
	// Small checkpoint interval so deaths land before, inside and after
	// checkpoints across seeds.
	opts := Options{CheckpointEvery: 20 + rand.New(rand.NewSource(seed)).Intn(60), SyncWAL: crash}
	// A dry run counts the workload's file operations, so the death can
	// land at a random one of them. The count varies a little from run to
	// run (heap placement follows map order); a death drawn past the real
	// run's end lands after it.
	total := 0
	dry := faultfs.New(seed)
	dry.Inject(func(faultfs.Op) error { total++; return nil })
	opts.FS = dry
	if _, _, _, err := crashWorkload(t, seed, filepath.Join(t.TempDir(), "dry.nsf"), opts); err != nil {
		t.Fatalf("dry run: %v", err)
	}

	fs := faultfs.New(seed)
	opts.FS = fs
	path := filepath.Join(t.TempDir(), "fuzz.nsf")
	fired := dieAt(fs, 1+rand.New(rand.NewSource(-seed)).Intn(total), crash)
	model, alt, unids, err := crashWorkload(t, seed, path, opts)
	if !fired() {
		if err != nil {
			t.Fatalf("operation failed before the death: %v", err)
		}
		die(fs, crash)
	}
	fs.Inject(nil)
	s2, err := Open(path, opts)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	if problems := s2.Verify(); len(problems) != 0 {
		t.Fatalf("recovered store fails verification: %v", problems)
	}
	if !recoveredModel(t, s2, model, unids) && !recoveredModel(t, s2, alt, unids) {
		t.Fatalf("recovered state (%d notes) is neither the %d acked operations' nor theirs plus the one in flight",
			s2.Count(), len(model))
	}
	// The recovered store keeps working and survives a second death.
	n := nsf.NewNote(nsf.ClassDocument)
	n.OID.Seq = 1
	n.OID.SeqTime = 1 << 20
	n.Modified = 1 << 20
	n.SetText("Subject", "post-recovery")
	if err := s2.Put(n); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	want := s2.Count()
	die(fs, crash)
	s3, err := Open(path, opts)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer s3.Close()
	if _, err := getByUNID(s3, n.OID.UNID); err != nil {
		t.Fatalf("post-recovery doc lost after second death: %v", err)
	}
	if s3.Count() != want {
		t.Fatalf("second recovery count = %d, want %d", s3.Count(), want)
	}
}

// recoveredModel reports whether s holds exactly model's documents among
// unids.
func recoveredModel(t *testing.T, s *Store, model map[nsf.UNID]modelDoc, unids []nsf.UNID) bool {
	t.Helper()
	if s.Count() != len(model) {
		return false
	}
	for _, u := range unids {
		n, err := getByUNID(s, u)
		want, ok := model[u]
		switch {
		case !ok && errors.Is(err, ErrNotFound):
		case !ok || err != nil:
			return false
		case n.Text("Subject") != want.subject || len(n.Text("Body")) != want.body:
			return false
		}
	}
	return true
}

// crashedWALStore writes n notes without checkpointing and kills the
// process, returning the page-file path so tests can damage the WAL before
// recovery.
func crashedWALStore(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "torn.nsf")
	fs := faultfs.New(1)
	s, err := Open(path, Options{CheckpointEvery: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		note := nsf.NewNote(nsf.ClassDocument)
		note.OID.Seq = 1
		note.OID.SeqTime = nsf.Timestamp(i + 1)
		note.Modified = nsf.Timestamp(i + 1)
		note.SetText("Subject", fmt.Sprintf("wal-doc-%d", i))
		if err := s.Put(note); err != nil {
			t.Fatal(err)
		}
	}
	fs.Kill() // everything is in the WAL
	return path
}

// checkRecoveredPrefix opens the damaged store and asserts recovery kept
// exactly the first `keep` notes, stayed usable, and never panicked.
func checkRecoveredPrefix(t *testing.T, path string, keep int) {
	t.Helper()
	s, err := Open(path, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("recovery after WAL damage: %v", err)
	}
	defer s.Close()
	if got := s.Count(); got != keep {
		t.Fatalf("recovered %d notes, want the %d before the damage", got, keep)
	}
	if got := s.LastUSN(); got != uint64(keep) {
		t.Fatalf("recovered USN %d, want %d", got, keep)
	}
	subjects := make(map[string]bool)
	scanAll(s, func(n *nsf.Note) bool {
		subjects[n.Text("Subject")] = true
		return true
	})
	for i := 0; i < keep; i++ {
		if !subjects[fmt.Sprintf("wal-doc-%d", i)] {
			t.Fatalf("doc %d missing after recovery", i)
		}
	}
	for i := keep; i < keep+3; i++ {
		if subjects[fmt.Sprintf("wal-doc-%d", i)] {
			t.Fatalf("doc %d resurrected from damaged WAL region", i)
		}
	}
	// The store keeps working after damage recovery.
	note := nsf.NewNote(nsf.ClassDocument)
	note.OID.Seq = 1
	note.OID.SeqTime = nsf.Timestamp(keep + 1000)
	note.Modified = nsf.Timestamp(keep + 1000)
	note.SetText("Subject", "post-damage")
	if err := s.Put(note); err != nil {
		t.Fatalf("Put after damaged-WAL recovery: %v", err)
	}
	if got := s.LastUSN(); got != uint64(keep)+1 {
		t.Fatalf("USN after post-damage Put = %d, want %d", got, keep+1)
	}
}

// TestCrashTornWALTail truncates the WAL mid-frame (a torn write at power
// loss) and requires recovery to keep the intact prefix.
func TestCrashTornWALTail(t *testing.T) {
	path := crashedWALStore(t, 10)
	walPath := path + ".wal"
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-11], 0o644); err != nil {
		t.Fatal(err)
	}
	checkRecoveredPrefix(t, path, 9)
}

// TestCrashBitFlippedWALCRC flips one payload byte in a middle frame (media
// corruption). Recovery must stop at the last frame before the flip —
// treating everything after as a torn tail — rather than applying records
// past a corrupt one or panicking.
func TestCrashBitFlippedWALCRC(t *testing.T) {
	path := crashedWALStore(t, 10)
	walPath := path + ".wal"
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the 6th frame, flip a byte inside its payload.
	off := int64(0)
	for i := 0; i < 5; i++ {
		off += 8 + int64(binary.LittleEndian.Uint32(raw[off:]))
	}
	raw[off+8+15] ^= 0x04
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	checkRecoveredPrefix(t, path, 5)
}
