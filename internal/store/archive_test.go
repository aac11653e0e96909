package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/nsf"
	"repro/internal/vfs"
)

func newTestNote(i int, ts nsf.Timestamp) *nsf.Note {
	n := nsf.NewNote(nsf.ClassDocument)
	n.OID.Seq = 1
	n.OID.SeqTime = ts
	n.Modified = ts
	n.SetText("Subject", fmt.Sprintf("doc-%d", i))
	return n
}

// archivedStore opens a store with log archiving on and manual checkpoints,
// on fs when it is not nil.
func archivedStore(t *testing.T, fs vfs.FS) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	arc := filepath.Join(dir, "walog")
	s, err := Open(filepath.Join(dir, "db.nsf"), Options{CheckpointEvery: -1, ArchiveDir: arc, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return s, arc
}

func TestArchiveSealAndScan(t *testing.T) {
	s, arc := archivedStore(t, nil)
	defer s.Close()
	var unids []nsf.UNID
	ts := nsf.Timestamp(0)
	for i := 0; i < 10; i++ {
		ts++
		n := newTestNote(i, ts)
		if err := s.Put(n); err != nil {
			t.Fatal(err)
		}
		unids = append(unids, n.OID.UNID)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		ts++
		if err := s.Put(newTestNote(i, ts)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(unids[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	segs, err := ListSegments(vfs.OS, arc)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2", len(segs))
	}
	if segs[0].FirstUSN != 1 || segs[0].LastUSN != 10 || segs[0].Records != 10 {
		t.Fatalf("segment 1 covers USN %d..%d (%d records), want 1..10 (10)",
			segs[0].FirstUSN, segs[0].LastUSN, segs[0].Records)
	}
	if segs[1].FirstUSN != 11 || segs[1].LastUSN != 16 || segs[1].Records != 6 {
		t.Fatalf("segment 2 covers USN %d..%d (%d records), want 11..16 (6)",
			segs[1].FirstUSN, segs[1].LastUSN, segs[1].Records)
	}
	for _, seg := range segs {
		if n, err := VerifySegment(vfs.OS, seg); err != nil {
			t.Fatalf("VerifySegment(%s): %v", seg.Path, err)
		} else if n != int(seg.Records) {
			t.Fatalf("VerifySegment(%s) read %d records, header says %d", seg.Path, n, seg.Records)
		}
	}

	var got []uint64
	deletes := 0
	last, err := ScanArchive(vfs.OS, arc, 0, 0, func(rec walRecord) error {
		got = append(got, rec.USN)
		if rec.Kind == walDelete {
			deletes++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != 16 || len(got) != 16 || deletes != 1 {
		t.Fatalf("scan: last=%d records=%d deletes=%d, want 16/16/1", last, len(got), deletes)
	}
	for i, usn := range got {
		if usn != uint64(i+1) {
			t.Fatalf("record %d has USN %d, want %d", i, usn, i+1)
		}
	}
	// Bounded scan delivers exactly (after, to].
	got = got[:0]
	last, err = ScanArchive(vfs.OS, arc, 3, 12, func(rec walRecord) error {
		got = append(got, rec.USN)
		return nil
	})
	if err != nil || last != 12 || len(got) != 9 || got[0] != 4 || got[8] != 12 {
		t.Fatalf("bounded scan: last=%d n=%d err=%v", last, len(got), err)
	}
}

// TestArchiveCrashSealsReplayedTail checks that log records surviving only
// in the WAL at crash time still make it into the archive: recovery replays
// them and seals them into a segment, so the archived history stays dense.
func TestArchiveCrashSealsReplayedTail(t *testing.T) {
	fs := faultfs.New(1)
	s, arc := archivedStore(t, fs)
	ts := nsf.Timestamp(0)
	for i := 0; i < 7; i++ {
		ts++
		if err := s.Put(newTestNote(i, ts)); err != nil {
			t.Fatal(err)
		}
	}
	// Kill before any checkpoint: the 7 operations exist only in the WAL.
	fs.Kill()
	s.Close()
	s2, err := Open(s.path, Options{CheckpointEvery: -1, ArchiveDir: arc, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.LastUSN(); got != 7 {
		t.Fatalf("recovered USN = %d, want 7", got)
	}
	var usns []uint64
	if _, err := ScanArchive(vfs.OS, arc, 0, 0, func(rec walRecord) error {
		usns = append(usns, rec.USN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(usns) != 7 || usns[0] != 1 || usns[6] != 7 {
		t.Fatalf("archive holds USNs %v, want 1..7", usns)
	}
}

// TestArchiveOverlapTolerated cuts the power between a checkpoint's seal
// and its WAL reset, so recovery seals the same records again as the next
// segment. The reader must deliver each USN exactly once.
func TestArchiveOverlapTolerated(t *testing.T) {
	fs := faultfs.New(1)
	s, arc := archivedStore(t, fs)
	ts := nsf.Timestamp(0)
	for i := 0; i < 5; i++ {
		ts++
		if err := s.Put(newTestNote(i, ts)); err != nil {
			t.Fatal(err)
		}
	}
	fs.Inject(func(op faultfs.Op) error {
		if op.Kind == faultfs.OpTruncate {
			fs.Crash()
			return faultfs.ErrKilled
		}
		return nil
	})
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint survived a power loss at its WAL reset")
	}
	fs.Inject(nil)
	s.Close()
	s, err := Open(s.path, Options{CheckpointEvery: -1, ArchiveDir: arc, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if segs, err := ListSegments(vfs.OS, arc); err != nil || len(segs) != 2 {
		t.Fatalf("archive holds %d segments (err %v), want the seal and its re-seal", len(segs), err)
	}
	var usns []uint64
	last, err := ScanArchive(vfs.OS, arc, 0, 0, func(rec walRecord) error {
		usns = append(usns, rec.USN)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != 5 || len(usns) != 5 {
		t.Fatalf("overlap scan delivered %d records (last %d), want 5 (5)", len(usns), last)
	}
}

func TestArchiveGapDetected(t *testing.T) {
	s, arc := archivedStore(t, nil)
	defer s.Close()
	ts := nsf.Timestamp(0)
	for seg := 0; seg < 2; seg++ {
		for i := 0; i < 5; i++ {
			ts++
			if err := s.Put(newTestNote(seg*5+i, ts)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(arc, segName(1))); err != nil {
		t.Fatal(err)
	}
	_, err := ScanArchive(vfs.OS, arc, 0, 0, func(walRecord) error { return nil })
	if !errors.Is(err, ErrArchiveGap) {
		t.Fatalf("scan over missing segment: %v, want ErrArchiveGap", err)
	}
	// Scanning only the range the surviving segment covers still works.
	last, err := ScanArchive(vfs.OS, arc, 5, 0, func(walRecord) error { return nil })
	if err != nil || last != 10 {
		t.Fatalf("partial scan: last=%d err=%v, want 10/nil", last, err)
	}
}

// TestArchiveCorruptSegmentStops covers the two damage modes for archived
// segments — a torn tail (truncated file) and a bit-flipped frame — and
// requires the reader to stop at the last intact record with
// ErrCorruptSegment, never resurrecting or panicking.
func TestArchiveCorruptSegmentStops(t *testing.T) {
	build := func(t *testing.T) (string, string) {
		s, arc := archivedStore(t, nil)
		defer s.Close()
		ts := nsf.Timestamp(0)
		for i := 0; i < 8; i++ {
			ts++
			if err := s.Put(newTestNote(i, ts)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return arc, filepath.Join(arc, segName(1))
	}

	t.Run("torn-tail", func(t *testing.T) {
		arc, seg := build(t)
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		// Cut into the final frame.
		if err := os.WriteFile(seg, raw[:len(raw)-7], 0o644); err != nil {
			t.Fatal(err)
		}
		var usns []uint64
		last, err := ScanArchive(vfs.OS, arc, 0, 0, func(rec walRecord) error {
			usns = append(usns, rec.USN)
			return nil
		})
		if !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("torn segment scan: %v, want ErrCorruptSegment", err)
		}
		if last != 7 || len(usns) != 7 {
			t.Fatalf("torn segment delivered %d records (last %d), want the 7 intact ones", len(usns), last)
		}
	})

	t.Run("bit-flip", func(t *testing.T) {
		arc, seg := build(t)
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		// Locate the 4th frame and flip one payload byte.
		off := int64(segHeaderSize)
		for i := 0; i < 3; i++ {
			off += 8 + int64(binary.LittleEndian.Uint32(raw[off:]))
		}
		raw[off+8+20] ^= 0x40
		if err := os.WriteFile(seg, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var usns []uint64
		last, err := ScanArchive(vfs.OS, arc, 0, 0, func(rec walRecord) error {
			usns = append(usns, rec.USN)
			return nil
		})
		if !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("bit-flipped segment scan: %v, want ErrCorruptSegment", err)
		}
		if last != 3 || len(usns) != 3 {
			t.Fatalf("bit-flipped segment delivered %d records (last %d), want the 3 before the flip", len(usns), last)
		}
		if _, err := VerifySegment(vfs.OS, SegmentInfo{Path: seg}); err == nil {
			t.Fatal("VerifySegment accepted a bit-flipped segment")
		}
	})
}

// TestApplyArchivePITR rolls an empty store forward to several points in
// time and checks each lands exactly on the modeled state.
func TestApplyArchivePITR(t *testing.T) {
	s, arc := archivedStore(t, nil)
	type op struct {
		put  bool
		unid nsf.UNID
		subj string
	}
	var ops []op
	var live []nsf.UNID
	ts := nsf.Timestamp(0)
	for i := 0; i < 30; i++ {
		ts++
		if i%7 == 3 && len(live) > 0 {
			u := live[i%len(live)]
			live = append(live[:i%len(live)], live[i%len(live)+1:]...)
			if err := s.Delete(u); err != nil {
				t.Fatal(err)
			}
			ops = append(ops, op{put: false, unid: u})
		} else {
			n := newTestNote(i, ts)
			if err := s.Put(n); err != nil {
				t.Fatal(err)
			}
			ops = append(ops, op{put: true, unid: n.OID.UNID, subj: n.Text("Subject")})
			live = append(live, n.OID.UNID)
		}
		if i%11 == 10 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil { // final checkpoint seals the tail
		t.Fatal(err)
	}

	modelAt := func(u uint64) map[nsf.UNID]string {
		m := make(map[nsf.UNID]string)
		for _, o := range ops[:u] {
			if o.put {
				m[o.unid] = o.subj
			} else {
				delete(m, o.unid)
			}
		}
		return m
	}
	for _, target := range []uint64{1, 7, 15, 29, 30} {
		fresh, err := Open(filepath.Join(t.TempDir(), "pitr.nsf"), Options{CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		applied, err := fresh.ApplyArchive(arc, target)
		if err != nil {
			t.Fatalf("ApplyArchive(%d): %v", target, err)
		}
		if applied != int(target) {
			t.Fatalf("ApplyArchive(%d) applied %d records", target, applied)
		}
		if got := fresh.LastUSN(); got != target {
			t.Fatalf("after PITR to %d, LastUSN = %d", target, got)
		}
		want := modelAt(target)
		if fresh.Count() != len(want) {
			t.Fatalf("PITR to %d: %d notes, want %d", target, fresh.Count(), len(want))
		}
		for u, subj := range want {
			n, err := getByUNID(fresh, u)
			if err != nil {
				t.Fatalf("PITR to %d: note %s missing: %v", target, u, err)
			}
			if n.Text("Subject") != subj {
				t.Fatalf("PITR to %d: note %s subject %q, want %q", target, u, n.Text("Subject"), subj)
			}
		}
		// The rolled-forward store is durable: survive a reopen.
		if err := fresh.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(fresh.path, Options{CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if re.Count() != len(want) || re.LastUSN() != target {
			t.Fatalf("PITR to %d not durable: count=%d usn=%d", target, re.Count(), re.LastUSN())
		}
		re.Close()
	}
}

// TestUSNPersistsAcrossReopen pins the USN durability contract: dense while
// running, exact across clean close, crash, and compaction. The incarnation
// survives a clean close and compaction; crash recovery mints a new one.
func TestUSNPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "usn.nsf")
	fs := faultfs.New(1)
	s, err := Open(path, Options{CheckpointEvery: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	inc := s.Incarnation()
	ts := nsf.Timestamp(0)
	for i := 0; i < 12; i++ {
		ts++
		if err := s.Put(newTestNote(i, ts)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.LastUSN(); got != 12 {
		t.Fatalf("LastUSN = %d, want 12", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path, Options{CheckpointEvery: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.LastUSN(); got != 12 || s.Incarnation() != inc {
		t.Fatalf("after clean reopen: LastUSN %d, incarnation %x; want 12, %x", got, s.Incarnation(), inc)
	}
	ts++
	if err := s.Put(newTestNote(100, ts)); err != nil {
		t.Fatal(err)
	}
	// Kill: WAL replay must restore USN 13.
	fs.Kill()
	s.Close()
	s2, err := Open(path, Options{CheckpointEvery: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.LastUSN(); got != 13 || s2.Incarnation() == inc {
		t.Fatalf("after crash recovery: LastUSN %d, incarnation %x; want 13 and not %x", got, s2.Incarnation(), inc)
	}
	inc = s2.Incarnation()
	if _, err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s2.LastUSN(); got != 13 {
		t.Fatalf("LastUSN after compaction = %d, want 13", got)
	}
	if s2.Incarnation() != inc {
		t.Fatalf("incarnation after compaction = %x, want %x", s2.Incarnation(), inc)
	}
	// Compaction swapped in a file its own Close marked clean; the store
	// still counts as open, so a crash now must also re-mint.
	fs.Kill()
	s2.Close()
	s3, err := Open(path, Options{CheckpointEvery: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if s3.Incarnation() == inc {
		t.Fatalf("crash after compaction kept incarnation %x", inc)
	}
	inc = s3.Incarnation()
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	s4, err := Open(path, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s4.Close()
	if got := s4.LastUSN(); got != 13 || s4.Incarnation() != inc {
		t.Fatalf("after clean reopen: LastUSN %d, incarnation %x; want 13, %x", got, s4.Incarnation(), inc)
	}
}
