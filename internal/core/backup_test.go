package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/backup"
	"repro/internal/nsf"
)

// TestBackupRestoreEndToEnd drives session-level CRUD (including a soft
// delete, which the core layer turns into a deletion stub), takes a full
// and an incremental backup, restores, and checks the restored database —
// notes, stubs, feed cursor, and view/FT rebuild — against the source.
func TestBackupRestoreEndToEnd(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(filepath.Join(dir, "src.nsf"), Options{Title: "bak"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session("ada")

	var unids []nsf.UNID
	for i := 0; i < 8; i++ {
		n := memo(fmt.Sprintf("first-%d", i))
		if err := s.Create(n); err != nil {
			t.Fatal(err)
		}
		unids = append(unids, n.OID.UNID)
	}
	setDir := filepath.Join(dir, "bak")
	full, err := db.Backup(setDir)
	if err != nil {
		t.Fatal(err)
	}
	if full.Kind != backup.KindFull || full.EndUSN != db.LastUSN() {
		t.Fatalf("full image = %+v, db at USN %d", full.Header, db.LastUSN())
	}

	// Second wave: an update, a delete (stub), and fresh notes.
	got, err := s.Get(unids[0])
	if err != nil {
		t.Fatal(err)
	}
	got.SetText("Subject", "first-0-updated")
	if err := s.Update(got); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(unids[1]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Create(memo(fmt.Sprintf("second-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	incr, err := db.BackupIncremental(setDir)
	if err != nil {
		t.Fatal(err)
	}
	if incr.Kind != backup.KindIncremental || incr.BaseUSN != full.EndUSN || incr.EndUSN != db.LastUSN() {
		t.Fatalf("incremental image = %+v, db at USN %d", incr.Header, db.LastUSN())
	}
	if u, _, err := LastBackupUSN(setDir); err != nil || u != incr.EndUSN {
		t.Fatalf("LastBackupUSN = %d, %v; want %d", u, err, incr.EndUSN)
	}

	restored, info, err := Restore(setDir, filepath.Join(dir, "restored.nsf"),
		backup.RestoreOptions{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if info.ReachedUSN != incr.EndUSN {
		t.Fatalf("restore reached USN %d, want %d", info.ReachedUSN, incr.EndUSN)
	}
	if restored.ReplicaID() != db.ReplicaID() {
		t.Fatal("restored database lost its replica identity")
	}
	if restored.Title() != "bak" {
		t.Fatalf("restored title %q", restored.Title())
	}
	// The feed cursor continues the store's USN sequence, so consumers of
	// the restored database sequence changes after the image state.
	if restored.LastUSN() != incr.EndUSN {
		t.Fatalf("restored feed at USN %d, want %d", restored.LastUSN(), incr.EndUSN)
	}
	if restored.Count() != db.Count() {
		t.Fatalf("restored count %d, source %d", restored.Count(), db.Count())
	}
	rs := restored.Session("ada")
	if n, err := rs.Get(unids[0]); err != nil || n.Text("Subject") != "first-0-updated" {
		t.Fatalf("updated note after restore: %v %v", n, err)
	}
	// The soft delete restores as a deletion stub: Get refuses it, but it
	// still exists for replication.
	if _, err := rs.Get(unids[1]); err == nil {
		t.Fatal("deleted note readable after restore")
	}
	stub, err := restored.RawGet(unids[1])
	if err != nil || !stub.IsStub() {
		t.Fatalf("deletion stub not restored: %v %v", stub, err)
	}
	// Views rebuilt from the restored store see the restored state, and the
	// restored database accepts new writes continuing the USN sequence.
	if err := rs.Create(memo("post-restore")); err != nil {
		t.Fatalf("create after restore: %v", err)
	}
	if restored.LastUSN() != incr.EndUSN+1 {
		t.Fatalf("USN after post-restore create = %d, want %d", restored.LastUSN(), incr.EndUSN+1)
	}
}

// TestFeedUSNContinuityAcrossReopen checks that the database's USN is the
// store's persistent one across restarts, so backup cursors and change
// cursors stay comparable.
func TestFeedUSNContinuityAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seq.nsf")
	db, err := Open(path, Options{Title: "seq"})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session("ada")
	for i := 0; i < 5; i++ {
		if err := s.Create(memo(fmt.Sprintf("n-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := db.LastUSN()
	if before == 0 {
		t.Fatal("feed USN stayed 0")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.LastUSN() != before {
		t.Fatalf("feed reopened at USN %d, store left off at %d", db2.LastUSN(), before)
	}
	if err := db2.Session("ada").Create(memo("after-reopen")); err != nil {
		t.Fatal(err)
	}
	if db2.LastUSN() != before+1 {
		t.Fatalf("USN after reopen create = %d, want %d", db2.LastUSN(), before+1)
	}
}
