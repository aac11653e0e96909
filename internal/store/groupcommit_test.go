package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/nsf"
	"repro/internal/vfs"
)

func gcNote(ts nsf.Timestamp, subject string) *nsf.Note {
	n := nsf.NewNote(nsf.ClassDocument)
	n.OID.Seq = 1
	n.OID.SeqTime = ts
	n.Modified = ts
	n.SetText("Subject", subject)
	return n
}

// TestGroupCommitBasicSemantics checks that turning group commit on changes
// nothing observable: puts, gets, deletes, and recovery behave exactly as
// without it.
func TestGroupCommitBasicSemantics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc.nsf")
	s, err := Open(path, Options{GroupCommitWindow: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	var unids []nsf.UNID
	for i := 0; i < 20; i++ {
		n := gcNote(nsf.Timestamp(i+1), fmt.Sprintf("doc-%d", i))
		if err := s.Put(n); err != nil {
			t.Fatal(err)
		}
		unids = append(unids, n.OID.UNID)
	}
	if err := s.Delete(unids[3]); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(nsf.NewUNID()); err == nil {
		t.Fatal("Delete of a missing UNID should fail")
	}
	if got := s.LastUSN(); got != 21 {
		t.Fatalf("LastUSN = %d, want 21 (20 puts + 1 delete)", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Count(); got != 19 {
		t.Fatalf("recovered %d notes, want 19", got)
	}
	for i, u := range unids {
		_, err := getByUNID(s2, u)
		if i == 3 && err == nil {
			t.Fatal("deleted note resurrected")
		}
		if i != 3 && err != nil {
			t.Fatalf("doc %d lost: %v", i, err)
		}
	}
}

// TestGroupCommitCrashKeepsAckedPuts runs concurrent committers against a
// group-commit store, then kills the process (SyncWAL off) or cuts the
// power (SyncWAL on), and requires every acknowledged put to survive
// recovery: acked ⊆ recovered ⊆ attempted, with the store verifiably
// intact.
func TestGroupCommitCrashKeepsAckedPuts(t *testing.T) {
	for _, syncWAL := range []bool{false, true} {
		t.Run(fmt.Sprintf("syncWAL=%v", syncWAL), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "crash.nsf")
			fs := faultfs.New(1)
			s, err := Open(path, Options{
				GroupCommitWindow: 100 * time.Microsecond,
				SyncWAL:           syncWAL,
				CheckpointEvery:   50,
				FS:                fs,
			})
			if err != nil {
				t.Fatal(err)
			}
			const writers, puts = 8, 20
			attempted := make([][]nsf.UNID, writers)
			acked := make([][]nsf.UNID, writers)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < puts; i++ {
						n := gcNote(nsf.Timestamp(w*1000+i+1), fmt.Sprintf("w%d-%d", w, i))
						attempted[w] = append(attempted[w], n.OID.UNID)
						if err := s.Put(n); err != nil {
							t.Errorf("writer %d put %d: %v", w, i, err)
							return
						}
						acked[w] = append(acked[w], n.OID.UNID)
					}
				}()
			}
			wg.Wait()
			// Everything acked went through a batch write, and with SyncWAL
			// an fsync, so recovery must see it.
			if syncWAL {
				fs.Crash()
			} else {
				fs.Kill()
			}
			s.Close()
			s2, err := Open(path, Options{FS: fs})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer s2.Close()
			recovered := make(map[nsf.UNID]bool)
			scanAll(s2, func(n *nsf.Note) bool {
				recovered[n.OID.UNID] = true
				return true
			})
			allAttempted := make(map[nsf.UNID]bool)
			for w := 0; w < writers; w++ {
				for _, u := range attempted[w] {
					allAttempted[u] = true
				}
				for i, u := range acked[w] {
					if !recovered[u] {
						t.Fatalf("acked put w%d-%d lost after crash", w, i)
					}
				}
			}
			for u := range recovered {
				if !allAttempted[u] {
					t.Fatalf("recovered a note never attempted: %s", u)
				}
			}
			if problems := s2.Verify(); len(problems) != 0 {
				t.Fatalf("recovered store fails verification: %v", problems)
			}
		})
	}
}

// gcTornBatchStore builds a store whose WAL ends in one 4-record batch
// frame after 3 acked single-record frames, then kills the process. It
// returns the database path and the [pre, post) byte range of the batch
// frame in the WAL.
func gcTornBatchStore(t *testing.T) (path string, pre, post int64) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "torn.nsf")
	fs := faultfs.New(1)
	s, err := Open(path, Options{GroupCommitWindow: time.Millisecond, CheckpointEvery: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(gcNote(nsf.Timestamp(i+1), fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pre = s.wal.size.Load()
	// Four PutAsyncs with no Wait in between accumulate into one forming
	// batch; waiting on the last ticket flushes all four as one frame.
	var last Commit
	for i := 0; i < 4; i++ {
		c, err := s.PutAsync(gcNote(nsf.Timestamp(10+i), fmt.Sprintf("batch-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		last = c
	}
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	post = s.wal.size.Load()
	flushes, records := s.gc.stats()
	if records != 7 || flushes != 4 {
		t.Fatalf("stats = %d flushes / %d records, want 4/7 (3 singles + one 4-batch)", flushes, records)
	}
	// One frame: its length field covers the rest of the range.
	raw, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(binary.LittleEndian.Uint32(raw[pre:])); got != post-pre-8 {
		t.Fatalf("batch frame length %d, want %d — not a single frame", got, post-pre-8)
	}
	fs.Kill() // with the batch in the WAL tail
	s.Close()
	return path, pre, post
}

// checkTornBatchRecovery opens the damaged store and asserts all-or-nothing
// batch semantics: the 3 pre-batch docs survive, none of the 4 batch docs
// do, and the store stays usable.
func checkTornBatchRecovery(t *testing.T, path string) {
	t.Helper()
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("recovery after batch damage: %v", err)
	}
	defer s.Close()
	if got := s.Count(); got != 3 {
		t.Fatalf("recovered %d notes, want the 3 before the batch", got)
	}
	if got := s.LastUSN(); got != 3 {
		t.Fatalf("recovered USN %d, want 3", got)
	}
	subjects := make(map[string]bool)
	scanAll(s, func(n *nsf.Note) bool {
		subjects[n.Text("Subject")] = true
		return true
	})
	for i := 0; i < 3; i++ {
		if !subjects[fmt.Sprintf("pre-%d", i)] {
			t.Fatalf("pre-batch doc %d missing", i)
		}
	}
	for i := 0; i < 4; i++ {
		if subjects[fmt.Sprintf("batch-%d", i)] {
			t.Fatalf("batch doc %d survived partial-batch damage — a prefix was replayed", i)
		}
	}
	if err := s.Put(gcNote(100, "post-damage")); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
}

// TestGroupCommitTornBatchAllOrNothing damages the WAL inside a batch frame
// (torn tail and bit flip) and requires recovery to drop the whole batch —
// never replay a prefix of it — while keeping everything before it.
func TestGroupCommitTornBatchAllOrNothing(t *testing.T) {
	t.Run("torn-tail", func(t *testing.T) {
		path, pre, post := gcTornBatchStore(t)
		walPath := path + ".wal"
		raw, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		// Cut mid-frame: most of the batch made it to disk, but not all.
		if err := os.WriteFile(walPath, raw[:post-5], 0o644); err != nil {
			t.Fatal(err)
		}
		_ = pre
		checkTornBatchRecovery(t, path)
	})
	t.Run("bit-flip", func(t *testing.T) {
		path, pre, _ := gcTornBatchStore(t)
		walPath := path + ".wal"
		raw, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one byte inside the batch payload (after the 8-byte frame
		// header and the kind/usn prefix): the frame CRC must reject the
		// whole batch.
		raw[pre+8+9+4] ^= 0x10
		if err := os.WriteFile(walPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		checkTornBatchRecovery(t, path)
	})
}

// TestWALBatchReplayTruncation exercises batch framing at the WAL layer:
// two multi-record batches, with cuts placed inside each. Replay must keep
// whole batches only.
func TestWALBatchReplayTruncation(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	w, err := openWAL(vfs.OS, full)
	if err != nil {
		t.Fatal(err)
	}
	writeBatch := func(usns ...uint64) {
		var sub []byte
		for _, u := range usns {
			payload := []byte(fmt.Sprintf("payload-%d", u))
			sub = appendSubRecord(sub, walPut, u, payload)
		}
		if err := w.appendBatch(sub, len(usns), usns[len(usns)-1], false); err != nil {
			t.Fatal(err)
		}
	}
	writeBatch(1, 2, 3)
	b1end := w.size.Load()
	writeBatch(4, 5, 6)
	total := w.size.Load()
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	replayCount := func(t *testing.T, contents []byte) int {
		p := filepath.Join(t.TempDir(), "cut.wal")
		if err := os.WriteFile(p, contents, 0o644); err != nil {
			t.Fatal(err)
		}
		cw, err := openWAL(vfs.OS, p)
		if err != nil {
			t.Fatal(err)
		}
		defer cw.close()
		count := 0
		wantUSN := uint64(1)
		if err := cw.replay(func(rec walRecord) error {
			if rec.USN != wantUSN {
				t.Fatalf("replayed USN %d, want dense %d", rec.USN, wantUSN)
			}
			wantUSN++
			count++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return count
	}

	if got := replayCount(t, raw); got != 6 {
		t.Fatalf("intact log replayed %d records, want 6", got)
	}
	// Any cut inside the second frame keeps exactly the first batch.
	for _, cut := range []int64{b1end + 1, b1end + 9, total - 1} {
		if got := replayCount(t, raw[:cut]); got != 3 {
			t.Fatalf("cut at %d replayed %d records, want 3", cut, got)
		}
	}
	// Any cut inside the first frame keeps nothing.
	for _, cut := range []int64{1, 9, b1end - 1} {
		if got := replayCount(t, raw[:cut]); got != 0 {
			t.Fatalf("cut at %d replayed %d records, want 0", cut, got)
		}
	}

	// A malformed batch interior (sub-record length past the payload) under
	// a valid frame CRC means a broken writer: the whole batch must be
	// dropped, not a prefix of it.
	mw, err := openWAL(vfs.OS, filepath.Join(dir, "malformed.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var good []byte
	good = appendSubRecord(good, walPut, 1, []byte("ok-1"))
	good = appendSubRecord(good, walPut, 2, []byte("ok-2"))
	if err := mw.appendBatch(good, 2, 2, false); err != nil {
		t.Fatal(err)
	}
	var bad []byte
	bad = appendSubRecord(bad, walPut, 3, []byte("ok-3"))
	bad = appendSubRecord(bad, walPut, 4, []byte("truncated"))
	// The last sub-record's length field sits 4 bytes before its payload.
	binary.LittleEndian.PutUint32(bad[len(bad)-len("truncated")-4:], 1<<30)
	if err := mw.appendBatch(bad, 2, 4, false); err != nil {
		t.Fatal(err)
	}
	if err := mw.close(); err != nil {
		t.Fatal(err)
	}
	mraw, err := os.ReadFile(filepath.Join(dir, "malformed.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if got := replayCount(t, mraw); got != 2 {
		t.Fatalf("malformed batch interior replayed %d records, want only the 2 intact ones", got)
	}
}

// TestGroupCommitRacesMaintenance races 64 committers against checkpoint,
// compaction, and hot-backup loops with the race detector's help (run under
// make stress), then verifies the final state.
func TestGroupCommitRacesMaintenance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.nsf")
	s, err := Open(path, Options{
		GroupCommitWindow: 100 * time.Microsecond,
		CheckpointEvery:   40,
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers, puts = 64, 10
	stop := make(chan struct{})
	var maint sync.WaitGroup
	maint.Add(3)
	go func() {
		defer maint.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		defer maint.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	go func() {
		defer maint.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.HotBackup(io.Discard, io.Discard); err != nil {
				t.Errorf("hot backup: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				n := gcNote(nsf.Timestamp(w*1000+i+1), fmt.Sprintf("r%d-%d", w, i))
				if err := s.Put(n); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i%5 == 4 {
					if err := s.Delete(n.OID.UNID); err != nil {
						t.Errorf("writer %d delete: %v", w, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	maint.Wait()
	if t.Failed() {
		return
	}
	want := writers * (puts - puts/5)
	if got := s.Count(); got != want {
		t.Fatalf("final count %d, want %d", got, want)
	}
	if problems := s.Verify(); len(problems) != 0 {
		t.Fatalf("store fails verification after races: %v", problems)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Count(); got != want {
		t.Fatalf("reopened count %d, want %d", got, want)
	}
}

// TestGroupCommitAmortization counts WAL forces with SyncWAL on, the
// counted form of write_durable's store.gc_records_per_flush. A lone writer
// has nobody to share a force with and pays one per put. 64 writers share:
// the first WAL sync is held until every writer holds its ticket, so every
// record not in the first batch lands in the second. The WAL's syncs are
// counted in a faultfs hook on its path, since FS.Syncs also counts the
// page file's.
func TestGroupCommitAmortization(t *testing.T) {
	for _, tc := range []struct {
		name          string
		writers, puts int
		hold          bool // hold the first WAL sync until every ticket is issued
		ok            func(records, syncs int64) bool
		want          string
	}{
		{"lone writer", 1, 20, false, func(r, s int64) bool { return s == r }, "one WAL sync per put"},
		{"64 writers", 64, 1, true, func(r, s int64) bool { return r >= 8*s }, "at least 8 records per WAL sync"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := faultfs.New(1)
			path := filepath.Join(t.TempDir(), "amort.nsf")
			s, err := Open(path, Options{FS: fs, SyncWAL: true, CheckpointEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			total := int64(tc.writers * tc.puts)
			var syncs, issued atomic.Int64
			allIssued := make(chan struct{})
			fs.Inject(func(op faultfs.Op) error {
				if op.Kind == faultfs.OpSync && op.Path == path+".wal" && syncs.Add(1) == 1 && tc.hold {
					<-allIssued
				}
				return nil
			})
			var wg sync.WaitGroup
			for w := 0; w < tc.writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < tc.puts; i++ {
						c, err := s.PutAsync(gcNote(nsf.Timestamp(w*100+i+1), fmt.Sprintf("a%d-%d", w, i)))
						if issued.Add(1) == total {
							close(allIssued)
						}
						if err == nil {
							err = c.Wait()
						}
						if err != nil {
							t.Errorf("put: %v", err)
						}
					}
				}()
			}
			wg.Wait()
			fs.Inject(nil)
			records := int64(s.Stats().GroupCommitRecords)
			if records != total {
				t.Fatalf("group commit carried %d records, want %d", records, total)
			}
			if !tc.ok(records, syncs.Load()) {
				t.Fatalf("%d records over %d WAL syncs, want %s", records, syncs.Load(), tc.want)
			}
			t.Logf("%d records over %d WAL syncs", records, syncs.Load())
		})
	}
}
