package repl

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	gosync "sync"
	"sync/atomic"
	"testing"

	"repro/internal/backup"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/nsf"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestSummariesDecodeHeaders: a summary is a note's header, so listing
// summaries decodes what the selection formula needs and nothing else
// — no 1 KiB body. Decoding whole notes costs about 20 allocations per
// note; a header costs 3 (the note, its item slice, its index lookup).
func TestSummariesDecodeHeaders(t *testing.T) {
	db, err := core.Open(filepath.Join(t.TempDir(), "sums.nsf"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	g := workload.New(3)
	const notes, perNote, slack = 512, 4, 64
	for i := 0; i < notes; i++ {
		if err := db.RawPut(g.Document(1024)); err != nil {
			t.Fatal(err)
		}
	}
	db.Refresh()
	p := &LocalPeer{DB: db}
	allocs := testing.AllocsPerRun(5, func() {
		if sums, _, err := p.Summaries(store.Cursor{}, ""); err != nil || len(sums) != notes {
			t.Fatalf("Summaries: %d summaries (%v), want %d", len(sums), err, notes)
		}
	})
	if allocs > perNote*notes+slack {
		t.Errorf("Summaries of %d notes: %.0f allocs, ceiling %d per note + %d", notes, allocs, perNote, slack)
	}
}

// TestUnchangedPullSkipsNoteCache: a pull of summaries the replica already
// holds — live documents and deletion stubs — compares them with stored
// headers, so it decodes no note: the receiver's note cache neither misses,
// hits nor grows.
func TestUnchangedPullSkipsNoteCache(t *testing.T) {
	a, b := pairedDBs(t)
	const docs = 40
	for i := 0; i < docs; i++ {
		n := createDoc(t, a, fmt.Sprintf("doc %d", i))
		if i%5 == 0 {
			if err := a.Session("user").Delete(n.OID.UNID); err != nil {
				t.Fatal(err)
			}
		}
	}
	peer := &LocalPeer{DB: a}
	if _, err := Replicate(b, peer, Options{PullOnly: true}); err != nil {
		t.Fatal(err)
	}
	before := b.Stats()
	var st Stats
	if _, err := pull(b, peer, &st, store.Cursor{}, Options{}); err != nil {
		t.Fatal(err)
	}
	after := b.Stats()
	if st.SummariesIn != docs || st.Pull.Skipped != docs || st.NotesFetched != 0 {
		t.Fatalf("pull of unchanged notes: %d summaries, %d skipped, %d fetched; want %d, %d, 0",
			st.SummariesIn, st.Pull.Skipped, st.NotesFetched, docs, docs)
	}
	if after.NoteCacheEntries != before.NoteCacheEntries || after.NoteCacheMisses != before.NoteCacheMisses ||
		after.NoteCacheHits != before.NoteCacheHits {
		t.Errorf("the pull used the note cache: %d entries, %d hits, %d misses before; %d, %d, %d after",
			before.NoteCacheEntries, before.NoteCacheHits, before.NoteCacheMisses,
			after.NoteCacheEntries, after.NoteCacheHits, after.NoteCacheMisses)
	}
}

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

// TestPullFromCopySeededMateNeverSkips is TestPullAcrossMatesNeverSkips
// with mate B seeded by copying mate A's cleanly closed file: the two start
// from one USN sequence and then number different notes alike, so a cursor
// A issued must not be honoured by B.
func TestPullFromCopySeededMateNeverSkips(t *testing.T) {
	dir := t.TempDir()
	aPath, bPath := filepath.Join(dir, "a.nsf"), filepath.Join(dir, "b.nsf")
	replica := nsf.NewReplicaID()
	open := func(path string) *core.Database {
		db, err := core.Open(path, core.Options{ReplicaID: replica})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	seed, err := core.Open(aPath, core.Options{ReplicaID: replica})
	if err != nil {
		t.Fatal(err)
	}
	createDoc(t, seed, "in both")
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(aPath + "*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(bPath+strings.TrimPrefix(f, aPath), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, b, local := open(aPath), open(bPath), open(filepath.Join(dir, "local.nsf"))
	early := createDoc(t, b, "written on B first")
	for i := 0; i < 3; i++ {
		createDoc(t, a, fmt.Sprintf("written on A %d", i))
	}
	pullFrom(t, local, a)
	pullFrom(t, local, b)
	requireDocs(t, local, []*nsf.Note{early})
}

// TestPullAfterSourceCrashNeverSkips pulls from a source whose last commits
// were applied but never made durable, then cuts the source's power so
// they are lost. Recovery hands their USNs out again, below the cursor the
// puller already holds, so every note the recovered source writes must
// still arrive.
func TestPullAfterSourceCrashNeverSkips(t *testing.T) {
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "src.nsf")
	fs := faultfs.New(1)
	srcOpts := core.Options{Store: store.Options{FS: fs}}
	src, err := core.Open(srcPath, srcOpts)
	if err != nil {
		t.Fatal(err)
	}
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
	// Without SyncWAL these commits reach the OS but no disk.
	for i := 0; i < 3; i++ {
		createDoc(t, src, fmt.Sprintf("lost in the crash %d", i))
	}
	pullFrom(t, local, src)
	lastUSN := src.LastUSN()
	fs.Crash()
	src.Close()
	crashed, err := core.Open(srcPath, srcOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer crashed.Close()
	if got := crashed.LastUSN(); got >= lastUSN {
		t.Fatalf("the crash kept every commit (USN %d of %d): nothing to test", got, lastUSN)
	}
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
