package repl

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	gosync "sync"
	"sync/atomic"
	"testing"

	"repro/internal/backup"
	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/store"
)

// TestSummariesCursorNeverSkips pins safe incremental sync: a reader that
// pages LocalPeer.Summaries with the cursor each call hands back, while
// writers keep committing, has been told every note's final version once
// the writers stop. A cursor read from the clock instead of the scanned
// snapshot can step past a version a writer has stamped but not yet
// indexed, and that version is then never reported.
func TestSummariesCursorNeverSkips(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db, _ := pairedDBs(t)
	const writers, perWriter = 8, 500

	peer := &LocalPeer{DB: db}
	seen := map[nsf.UNID]uint32{}
	var cursor store.Cursor
	poll := func() {
		sums, next, err := peer.Summaries(cursor, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sums {
			seen[s.UNID] = max(seen[s.UNID], s.Seq)
		}
		cursor = next
	}

	var done atomic.Bool
	var wg gosync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.Session("user")
			// Every create is some note's final version, so any version the
			// cursor steps past stays unreported.
			for i := 0; i < perWriter; i++ {
				n := nsf.NewNote(nsf.ClassDocument)
				n.SetText("Subject", fmt.Sprintf("writer %d note %d", w, i))
				if err := sess.Create(n); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); done.Store(true) }()
	for !done.Load() {
		poll()
	}
	poll()

	missed, total := 0, 0
	err := db.ScanAll(func(n *nsf.Note) bool {
		if n.Class == nsf.ClassDocument {
			total++
			if seen[n.OID.UNID] != n.OID.Seq {
				missed++
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if missed > 0 {
		t.Errorf("%d of %d notes: final version never reported by a cursor-paged scan", missed, total)
	}
}

// pullFrom runs one pull-only session from peer under the peer name "mate".
func pullFrom(t *testing.T, local, peer *core.Database) {
	t.Helper()
	if _, err := Replicate(local, &LocalPeer{DB: peer}, Options{PeerName: "mate", PullOnly: true}); err != nil {
		t.Fatal(err)
	}
}

// requireDocs fails unless local holds every note in want.
func requireDocs(t *testing.T, local *core.Database, want []*nsf.Note) {
	t.Helper()
	for _, n := range want {
		if _, err := local.RawGet(n.OID.UNID); err != nil {
			t.Errorf("%q never pulled: %v", n.Text("Subject"), err)
		}
	}
}

// TestPullAcrossMatesNeverSkips is what a failover peer does when it
// switches mates: pull from mate A, then from mate B under the same peer
// name. The cursor A issued means nothing on B, whose notes are numbered
// differently, so a note B holds that A's cursor would pass over must
// still arrive.
func TestPullAcrossMatesNeverSkips(t *testing.T) {
	replica := nsf.NewReplicaID()
	open := func(name string) *core.Database {
		db, err := core.Open(filepath.Join(t.TempDir(), name), core.Options{ReplicaID: replica})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	a, b, local := open("a.nsf"), open("b.nsf"), open("local.nsf")
	early := createDoc(t, b, "written on B first")
	for i := 0; i < 3; i++ {
		createDoc(t, a, fmt.Sprintf("written on A %d", i))
	}
	pullFrom(t, local, a)
	pullFrom(t, local, b)
	requireDocs(t, local, []*nsf.Note{early})
}

// TestPullAfterSourceCrashNeverSkips pulls from a source whose last commits
// were applied but never made durable, then crashes the source so they are
// lost. Recovery hands their USNs out again, below the cursor the puller
// already holds, so every note the recovered source writes must still
// arrive.
func TestPullAfterSourceCrashNeverSkips(t *testing.T) {
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "src.nsf")
	src, err := core.Open(srcPath, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	local, err := core.Open(filepath.Join(dir, "local.nsf"), core.Options{ReplicaID: src.ReplicaID()})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	for i := 0; i < 3; i++ {
		createDoc(t, src, fmt.Sprintf("durable %d", i))
	}
	if err := src.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(srcPath + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	durable := info.Size()
	for i := 0; i < 3; i++ {
		createDoc(t, src, fmt.Sprintf("lost in the crash %d", i))
	}
	pullFrom(t, local, src)

	// The crash image: the page file as the last checkpoint left it and the
	// WAL cut back to its durable prefix, as an OS crash leaves an
	// unsynced log.
	crashPath := filepath.Join(dir, "crashed.nsf")
	for _, sfx := range []string{"", ".wal"} {
		raw, err := os.ReadFile(srcPath + sfx)
		if err != nil {
			t.Fatal(err)
		}
		if sfx == ".wal" {
			raw = raw[:durable]
		}
		if err := os.WriteFile(crashPath+sfx, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	crashed, err := core.Open(crashPath, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer crashed.Close()
	var post []*nsf.Note
	for i := 0; i < 2; i++ {
		post = append(post, createDoc(t, crashed, fmt.Sprintf("after recovery %d", i)))
	}
	pullFrom(t, local, crashed)
	requireDocs(t, local, post)
}

// TestPullAfterSourceRestoredToEarlierUSN restores a puller's source to an
// earlier point with PITR and writes to it: the restored copy numbers its
// new notes with USNs the puller's cursor has already passed, so the pull
// must start over rather than resume.
func TestPullAfterSourceRestoredToEarlierUSN(t *testing.T) {
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "src.nsf")
	arcDir := filepath.Join(dir, "walog")
	setDir := filepath.Join(dir, "bak")
	src, err := core.Open(srcPath, core.Options{Store: store.Options{ArchiveDir: arcDir}})
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.Open(filepath.Join(dir, "local.nsf"), core.Options{ReplicaID: src.ReplicaID()})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	for i := 0; i < 3; i++ {
		createDoc(t, src, fmt.Sprintf("before backup %d", i))
	}
	if _, err := src.Backup(setDir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		createDoc(t, src, fmt.Sprintf("after backup %d", i))
	}
	pullFrom(t, local, src)
	target := src.LastUSN() - 3
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{srcPath, srcPath + ".wal"} {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	restored, _, err := core.Restore(setDir, srcPath, backup.RestoreOptions{TargetUSN: target, ArchiveDir: arcDir}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	var post []*nsf.Note
	for i := 0; i < 2; i++ {
		post = append(post, createDoc(t, restored, fmt.Sprintf("after restore %d", i)))
	}
	pullFrom(t, local, restored)
	requireDocs(t, local, post)
}
