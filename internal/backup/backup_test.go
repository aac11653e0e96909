package backup

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/nsf"
	"repro/internal/store"
)

// noteState is the identity-and-content fingerprint the round-trip
// property compares: UNID, sequence number, and canonical content digest.
type noteState struct {
	seq    uint32
	digest [32]byte
}

// opLog records a deterministic operation history; op i (0-based) commits
// with USN i+1, so the model state at USN u is the replay of ops[:u].
type opLog struct {
	puts []*nsf.Note // clone at commit time; nil entry = delete
	dels []nsf.UNID  // UNID deleted (zero for puts)
}

func (l *opLog) put(n *nsf.Note) {
	l.puts = append(l.puts, n.Clone())
	l.dels = append(l.dels, nsf.UNID{})
}

func (l *opLog) del(u nsf.UNID) {
	l.puts = append(l.puts, nil)
	l.dels = append(l.dels, u)
}

func (l *opLog) stateAt(u uint64) map[nsf.UNID]noteState {
	m := make(map[nsf.UNID]noteState)
	for i := 0; i < int(u); i++ {
		if n := l.puts[i]; n != nil {
			m[n.OID.UNID] = noteState{seq: n.OID.Seq, digest: n.CanonicalDigest()}
		} else {
			delete(m, l.dels[i])
		}
	}
	return m
}

// checkState opens the database at path and compares its full note set
// (UNIDs, sequence numbers, canonical digests) against want.
func checkState(t *testing.T, path string, wantUSN uint64, want map[nsf.UNID]noteState) {
	t.Helper()
	st, err := store.Open(path, store.Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("open restored db: %v", err)
	}
	defer st.Close()
	if got := st.LastUSN(); got != wantUSN {
		t.Fatalf("restored LastUSN = %d, want %d", got, wantUSN)
	}
	got := 0
	err = st.ScanAll(func(n *nsf.Note) bool {
		got++
		w, ok := want[n.OID.UNID]
		if !ok {
			t.Fatalf("restored db holds unexpected note %s", n.OID.UNID)
		}
		if n.OID.Seq != w.seq {
			t.Fatalf("note %s restored at seq %d, want %d", n.OID.UNID, n.OID.Seq, w.seq)
		}
		if n.CanonicalDigest() != w.digest {
			t.Fatalf("note %s content digest mismatch after restore", n.OID.UNID)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != len(want) {
		t.Fatalf("restored db holds %d notes, want %d", got, len(want))
	}
}

func testDoc(i int, ts nsf.Timestamp) *nsf.Note {
	n := nsf.NewNote(nsf.ClassDocument)
	n.OID.Seq = 1
	n.OID.SeqTime = ts
	n.Modified = ts
	n.SetText("Subject", fmt.Sprintf("doc-%d", i))
	n.SetText("Body", strings.Repeat("x", ((i*37)%900+900)%900))
	return n
}

// buildSet drives a workload through a store with log archiving on, taking
// a full backup and two incrementals along the way. It returns the op log,
// the image chain, and the directories involved. Layout of the 40 ops:
//
//	ops  1..14  -> full image at USN 14
//	ops 15..24  -> incremental 2 at USN 24
//	ops 25..32  -> incremental 3 at USN 32
//	ops 33..40  -> only in the archived log (PITR territory)
func buildSet(t *testing.T) (lg *opLog, chain []ImageInfo, setDir, arcDir string) {
	t.Helper()
	dir := t.TempDir()
	setDir = filepath.Join(dir, "bak")
	arcDir = filepath.Join(dir, "walog")
	st, err := store.Open(filepath.Join(dir, "src.nsf"),
		store.Options{CheckpointEvery: 9, ArchiveDir: arcDir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	lg = &opLog{}
	var live []nsf.UNID
	ts := nsf.Timestamp(0)
	apply := func(i int) {
		ts++
		if i%9 == 5 && len(live) > 0 {
			idx := i % len(live)
			u := live[idx]
			live = append(live[:idx], live[idx+1:]...)
			if err := st.Delete(u); err != nil {
				t.Fatal(err)
			}
			lg.del(u)
			return
		}
		if i%7 == 3 && len(live) > 0 {
			// Update an existing note: bump seq, rewrite content.
			u := live[i%len(live)]
			n, err := st.GetByUNID(u)
			if err != nil {
				t.Fatal(err)
			}
			n.OID.Seq++
			n.OID.SeqTime = ts
			n.Modified = ts
			n.SetText("Subject", fmt.Sprintf("upd-%d", i))
			if err := st.Put(n); err != nil {
				t.Fatal(err)
			}
			lg.put(n)
			return
		}
		n := testDoc(i, ts)
		if err := st.Put(n); err != nil {
			t.Fatal(err)
		}
		lg.put(n)
		live = append(live, n.OID.UNID)
	}

	for i := 1; i <= 14; i++ {
		apply(i)
	}
	full, err := Full(st, setDir, ts)
	if err != nil {
		t.Fatal(err)
	}
	if full.EndUSN != 14 || full.Kind != KindFull || full.Seq != 1 {
		t.Fatalf("full image: %+v", full.Header)
	}
	chain = append(chain, full)

	for i := 15; i <= 24; i++ {
		apply(i)
	}
	inc1, err := Incremental(st, setDir, ts)
	if err != nil {
		t.Fatal(err)
	}
	if inc1.Kind != KindIncremental || inc1.BaseUSN != 14 || inc1.EndUSN != 24 {
		t.Fatalf("incremental 1: %+v", inc1.Header)
	}
	chain = append(chain, inc1)

	for i := 25; i <= 32; i++ {
		apply(i)
	}
	inc2, err := Incremental(st, setDir, ts)
	if err != nil {
		t.Fatal(err)
	}
	if inc2.BaseUSN != 24 || inc2.EndUSN != 32 {
		t.Fatalf("incremental 2: %+v", inc2.Header)
	}
	chain = append(chain, inc2)

	for i := 33; i <= 40; i++ {
		apply(i)
	}
	// Close seals the remaining WAL tail into the archive.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return lg, chain, setDir, arcDir
}

// TestRoundTripProperty is the subsystem's core invariant: a full image,
// its incremental chain, and point-in-time replay of the archived log to
// USN u reproduce exactly the note set visible at u — same UNIDs, same
// sequence numbers, same content digests.
func TestRoundTripProperty(t *testing.T) {
	lg, chain, setDir, arcDir := buildSet(t)

	// Targets cover: full image boundary, both incremental boundaries,
	// mid-archive points between and past images, and the end of history.
	for _, target := range []uint64{14, 20, 24, 28, 32, 37, 40} {
		t.Run(fmt.Sprintf("usn=%d", target), func(t *testing.T) {
			targetPath := filepath.Join(t.TempDir(), "restored.nsf")
			info, err := Restore(setDir, targetPath, RestoreOptions{TargetUSN: target, ArchiveDir: arcDir})
			if err != nil {
				t.Fatalf("Restore to USN %d: %v", target, err)
			}
			if info.ReachedUSN != target {
				t.Fatalf("reached USN %d, want %d", info.ReachedUSN, target)
			}
			checkState(t, targetPath, target, lg.stateAt(target))
		})
	}

	// Restore with no target: everything the set and archive hold.
	t.Run("latest", func(t *testing.T) {
		targetPath := filepath.Join(t.TempDir(), "restored.nsf")
		info, err := Restore(setDir, targetPath, RestoreOptions{ArchiveDir: arcDir})
		if err != nil {
			t.Fatal(err)
		}
		if info.ReachedUSN != 40 {
			t.Fatalf("latest restore reached USN %d, want 40", info.ReachedUSN)
		}
		checkState(t, targetPath, 40, lg.stateAt(40))
	})

	// Restore without the archive stops at the newest image at or below
	// the target.
	t.Run("images-only", func(t *testing.T) {
		targetPath := filepath.Join(t.TempDir(), "restored.nsf")
		info, err := Restore(setDir, targetPath, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if info.ReachedUSN != chain[2].EndUSN {
			t.Fatalf("images-only restore reached USN %d, want %d", info.ReachedUSN, chain[2].EndUSN)
		}
		checkState(t, targetPath, 32, lg.stateAt(32))
	})

	// A target the history cannot reach is an error, not a silent
	// short-stop.
	t.Run("unreachable", func(t *testing.T) {
		targetPath := filepath.Join(t.TempDir(), "restored.nsf")
		_, err := Restore(setDir, targetPath, RestoreOptions{TargetUSN: 28})
		if err == nil {
			t.Fatal("restore to USN 28 without the archive should fail (images stop at 24)")
		}
		if _, statErr := os.Stat(targetPath); !errors.Is(statErr, os.ErrNotExist) {
			t.Fatal("failed restore left a target file behind")
		}
	})
}

// TestHotBackupUnderConcurrentWrites runs a full backup while a writer
// hammers the store, then proves the image is a consistent snapshot at its
// recorded USN — writes racing the copy either fall entirely inside or
// entirely after the image, never half-applied.
func TestHotBackupUnderConcurrentWrites(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "src.nsf"), store.Options{CheckpointEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	lg := &opLog{}
	var mu sync.Mutex // orders log appends with their Puts
	ts := nsf.Timestamp(0)
	writeOne := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		ts++
		n := testDoc(i, ts)
		if err := st.Put(n); err != nil {
			t.Error(err)
			return
		}
		lg.put(n)
	}
	for i := 0; i < 100; i++ {
		writeOne(i)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 100; ; i++ {
			select {
			case <-stop:
				return
			default:
				writeOne(i)
			}
		}
	}()
	setDir := filepath.Join(dir, "bak")
	img, err := Full(st, setDir, 1)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if img.EndUSN < 100 {
		t.Fatalf("image USN %d, want >= 100", img.EndUSN)
	}

	targetPath := filepath.Join(dir, "restored.nsf")
	info, err := Restore(setDir, targetPath, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.ReachedUSN != img.EndUSN {
		t.Fatalf("restore reached %d, image says %d", info.ReachedUSN, img.EndUSN)
	}
	checkState(t, targetPath, img.EndUSN, lg.stateAt(img.EndUSN))

	// The source store kept working throughout and still accepts writes.
	writeOne(-1)
}

// TestBackupCrashMidImage simulates a process kill at both crash points of
// image writing (half-written temp file; complete temp file not yet
// renamed). In every state the set stays verifiable and restorable, the
// next backup succeeds, and the live store is unharmed.
func TestBackupCrashMidImage(t *testing.T) {
	for _, point := range []string{"image-body", "image-rename"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(filepath.Join(dir, "src.nsf"), store.Options{CheckpointEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ts := nsf.Timestamp(0)
			for i := 0; i < 10; i++ {
				ts++
				if err := st.Put(testDoc(i, ts)); err != nil {
					t.Fatal(err)
				}
			}
			setDir := filepath.Join(dir, "bak")
			if _, err := Full(st, setDir, ts); err != nil {
				t.Fatal(err)
			}

			// Kill the next (incremental) backup at the crash point.
			crashed := errors.New("simulated kill")
			testCrashPoint = func(p string) error {
				if p == point {
					return crashed
				}
				return nil
			}
			defer func() { testCrashPoint = nil }()
			ts++
			if err := st.Put(testDoc(100, ts)); err != nil {
				t.Fatal(err)
			}
			if _, err := Incremental(st, setDir, ts); !errors.Is(err, crashed) {
				t.Fatalf("crash point did not fire: %v", err)
			}
			// The kill left a temp file behind — prove it, then prove
			// everything ignores it.
			tmps, _ := filepath.Glob(filepath.Join(setDir, "*.tmp"))
			if len(tmps) != 1 {
				t.Fatalf("expected 1 leftover temp file, found %v", tmps)
			}
			testCrashPoint = nil

			set, err := OpenSet(setDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(set.Images) != 1 {
				t.Fatalf("set shows %d images, want the 1 published full", len(set.Images))
			}
			r, err := VerifySet(setDir, "")
			if err != nil || !r.OK() {
				t.Fatalf("set not verifiable after mid-backup kill: err=%v problems=%v", err, r.Problems)
			}
			// The interrupted backup reruns cleanly over the leftover.
			img, err := Incremental(st, setDir, ts)
			if err != nil {
				t.Fatalf("backup rerun after kill: %v", err)
			}
			if img.EndUSN != 11 {
				t.Fatalf("rerun image USN %d, want 11", img.EndUSN)
			}
			// And the set restores.
			targetPath := filepath.Join(dir, "restored.nsf")
			info, err := Restore(setDir, targetPath, RestoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if info.ReachedUSN != 11 {
				t.Fatalf("restore reached %d, want 11", info.ReachedUSN)
			}
			// Live store unharmed.
			ts++
			if err := st.Put(testDoc(200, ts)); err != nil {
				t.Fatalf("live store broken after mid-backup kill: %v", err)
			}
		})
	}
}

// TestRestoreCrashMidPublish simulates a kill just before the restored
// files are renamed into place: the target must be untouched, and a rerun
// (over the leftover staging directory) must succeed.
func TestRestoreCrashMidPublish(t *testing.T) {
	lg, _, setDir, arcDir := buildSet(t)
	targetPath := filepath.Join(t.TempDir(), "restored.nsf")

	crashed := errors.New("simulated kill")
	testCrashPoint = func(p string) error {
		if p == "restore-publish" {
			return crashed
		}
		return nil
	}
	if _, err := Restore(setDir, targetPath, RestoreOptions{ArchiveDir: arcDir}); !errors.Is(err, crashed) {
		testCrashPoint = nil
		t.Fatalf("crash point did not fire: %v", err)
	}
	testCrashPoint = nil
	if _, err := os.Stat(targetPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("killed restore touched the target path")
	}
	if _, err := os.Stat(targetPath + ".restore"); err != nil {
		t.Fatalf("killed restore left no staging dir (unexpected): %v", err)
	}
	// The set is still sound and a rerun restores over the leftovers.
	r, err := VerifySet(setDir, arcDir)
	if err != nil || !r.OK() {
		t.Fatalf("set not verifiable after mid-restore kill: err=%v problems=%v", err, r.Problems)
	}
	info, err := Restore(setDir, targetPath, RestoreOptions{ArchiveDir: arcDir})
	if err != nil {
		t.Fatalf("restore rerun after kill: %v", err)
	}
	if info.ReachedUSN != 40 {
		t.Fatalf("rerun reached USN %d, want 40", info.ReachedUSN)
	}
	checkState(t, targetPath, 40, lg.stateAt(40))
}

// TestVerifyAndChainDamage checks that every damage mode is caught: a
// flipped body byte (digest), a missing chain link, a truncated image, and
// a missing archive segment.
func TestVerifyAndChainDamage(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		_, chain, setDir, arcDir := buildSet(t)
		r, err := VerifySet(setDir, arcDir)
		if err != nil {
			t.Fatal(err)
		}
		if !r.OK() {
			t.Fatalf("clean set reported problems: %v", r.Problems)
		}
		if r.Images != len(chain) || r.Segments == 0 {
			t.Fatalf("verify coverage: %d images, %d segments", r.Images, r.Segments)
		}
	})

	t.Run("bit-flip", func(t *testing.T) {
		_, chain, setDir, _ := buildSet(t)
		raw, err := os.ReadFile(chain[1].Path)
		if err != nil {
			t.Fatal(err)
		}
		raw[imageHdrSize+5] ^= 0x01
		if err := os.WriteFile(chain[1].Path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := VerifySet(setDir, "")
		if err != nil {
			t.Fatal(err)
		}
		if r.OK() {
			t.Fatal("verify missed a flipped image byte")
		}
		// Restore through the damaged image must refuse.
		if _, err := Restore(setDir, filepath.Join(t.TempDir(), "r.nsf"), RestoreOptions{}); !errors.Is(err, ErrCorruptImage) {
			t.Fatalf("restore through damaged image: %v, want ErrCorruptImage", err)
		}
		// But restoring to a point before the damage still works.
		if _, err := Restore(setDir, filepath.Join(t.TempDir(), "r.nsf"), RestoreOptions{TargetUSN: chain[0].EndUSN}); err != nil {
			t.Fatalf("restore before damaged image: %v", err)
		}
	})

	t.Run("missing-link", func(t *testing.T) {
		_, chain, setDir, _ := buildSet(t)
		if err := os.Remove(chain[1].Path); err != nil {
			t.Fatal(err)
		}
		r, err := VerifySet(setDir, "")
		if err != nil {
			t.Fatal(err)
		}
		if r.OK() {
			t.Fatal("verify missed a missing chain link")
		}
		if _, err := Restore(setDir, filepath.Join(t.TempDir(), "r.nsf"), RestoreOptions{}); !errors.Is(err, ErrBrokenChain) {
			t.Fatalf("restore across missing link: %v, want ErrBrokenChain", err)
		}
	})

	t.Run("missing-segment", func(t *testing.T) {
		_, _, setDir, arcDir := buildSet(t)
		segs, err := store.ListSegments(arcDir)
		if err != nil || len(segs) < 2 {
			t.Fatalf("need >= 2 segments, got %d (%v)", len(segs), err)
		}
		if err := os.Remove(segs[1].Path); err != nil {
			t.Fatal(err)
		}
		r, err := VerifySet(setDir, arcDir)
		if err != nil {
			t.Fatal(err)
		}
		if r.OK() {
			t.Fatal("verify missed an archive gap")
		}
	})
}

// TestIncrementalNeverChainsOntoAnotherCopy covers a set that holds images
// of another database: a set directory is keyed by path, and a different
// replica, or the same replica recreated or restored there, reuses it. The
// newest image's USNs say nothing about the store being backed up, so
// Incremental must start a new chain with a full image, and a restore must
// refuse a chain whose links change copy.
func TestIncrementalNeverChainsOntoAnotherCopy(t *testing.T) {
	dir := t.TempDir()
	open := func(name string, replica nsf.ReplicaID) *store.Store {
		st, err := store.Open(filepath.Join(dir, name), store.Options{ReplicaID: replica})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	a := open("a.nsf", nsf.ReplicaID{})
	ts := nsf.Timestamp(0)
	for i := 0; i < 3; i++ {
		ts++
		if err := a.Put(testDoc(i, ts)); err != nil {
			t.Fatal(err)
		}
	}
	others := []struct {
		name string
		st   *store.Store
	}{
		{"other-replica", open("b.nsf", nsf.ReplicaID{})},
		{"same-replica-new-incarnation", open("a2.nsf", a.ReplicaID())},
	}
	for _, o := range others {
		t.Run(o.name, func(t *testing.T) {
			setDir := filepath.Join(t.TempDir(), "bak")
			if _, err := Full(a, setDir, ts); err != nil {
				t.Fatal(err)
			}
			ts++
			n := testDoc(100, ts)
			if err := o.st.Put(n); err != nil {
				t.Fatal(err)
			}
			img, err := Incremental(o.st, setDir, ts)
			if err != nil {
				t.Fatal(err)
			}
			if img.Kind != KindFull || img.Seq != 2 || img.EndUSN != o.st.LastUSN() {
				t.Fatalf("incremental of another copy wrote %+v, want a full image at seq 2", img.Header)
			}
			targetPath := filepath.Join(t.TempDir(), "restored.nsf")
			if _, err := Restore(setDir, targetPath, RestoreOptions{}); err != nil {
				t.Fatal(err)
			}
			checkState(t, targetPath, o.st.LastUSN(), map[nsf.UNID]noteState{
				n.OID.UNID: {seq: n.OID.Seq, digest: n.CanonicalDigest()},
			})
		})
	}

	t.Run("foreign-link", func(t *testing.T) {
		setDir := filepath.Join(t.TempDir(), "bak")
		full, err := Full(a, setDir, ts)
		if err != nil {
			t.Fatal(err)
		}
		// A well-formed, digest-linked incremental of another replica: zero
		// notes and an empty manifest frame.
		h := Header{Kind: KindIncremental, Seq: 2, Replica: nsf.NewReplicaID(), BaseUSN: full.EndUSN,
			EndUSN: full.EndUSN, Incarnation: full.Incarnation, Parent: full.Digest}
		if _, err := writeImage(setDir, &h, func(w io.Writer) error {
			_, err := w.Write(make([]byte, 8))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(setDir, filepath.Join(t.TempDir(), "r.nsf"), RestoreOptions{}); !errors.Is(err, ErrBrokenChain) {
			t.Fatalf("restore across a foreign link: %v, want ErrBrokenChain", err)
		}
		if r, err := VerifySet(setDir, ""); err != nil || r.OK() {
			t.Fatalf("verify of a foreign link: %v, problems %v", err, r.Problems)
		}
	})
}
