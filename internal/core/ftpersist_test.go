package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/backup"
)

func TestFullTextPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ft.nsf")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session("ada")
	for _, subj := range []string{"replication engine", "view indexer", "mail router"} {
		n := memo(subj)
		if err := s.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.EnableFullText(); err != nil {
		t.Fatal(err)
	}
	if hits, _ := s.Search("replication"); len(hits) != 1 {
		t.Fatal("baseline search failed")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".ft"); err != nil {
		t.Fatalf("sidecar not written: %v", err)
	}

	// Reopen: EnableFullText loads the sidecar (we verify by checking that
	// search works including for changes made after the snapshot).
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2 := db2.Session("ada")
	// Changes while the index was "offline".
	late := memo("compactor task")
	if err := s2.Create(late); err != nil {
		t.Fatal(err)
	}
	if err := db2.EnableFullText(); err != nil {
		t.Fatal(err)
	}
	if hits, _ := s2.Search("replication"); len(hits) != 1 {
		t.Error("snapshot content lost")
	}
	if hits, _ := s2.Search("compactor"); len(hits) != 1 {
		t.Error("catch-up missed offline write")
	}
}

func TestFullTextCatchUpDropsVanishedDocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ft.nsf")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session("ada")
	doomed := memo("ghost words")
	s.Create(doomed)
	keeper := memo("solid words")
	s.Create(keeper)
	if err := db.EnableFullText(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2 := db2.Session("ada")
	// Delete and purge the stub while the index is offline: the doc leaves
	// no trace in the modification scan.
	if err := s2.Delete(doomed.OID.UNID); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.PurgeStubs(db2.Clock().Now() + 1); err != nil {
		t.Fatal(err)
	}
	if err := db2.EnableFullText(); err != nil {
		t.Fatal(err)
	}
	if hits, _ := s2.Search("ghost"); len(hits) != 0 {
		t.Error("vanished doc still searchable after catch-up")
	}
	if hits, _ := s2.Search("solid"); len(hits) != 1 {
		t.Error("surviving doc lost during catch-up")
	}
}

func TestFullTextCorruptSidecarFallsBackToRebuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ft.nsf")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session("ada")
	s.Create(memo("findable content"))
	if err := os.WriteFile(path+".ft", []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableFullText(); err != nil {
		t.Fatalf("EnableFullText with corrupt sidecar: %v", err)
	}
	if hits, _ := s.Search("findable"); len(hits) != 1 {
		t.Error("rebuild fallback did not index")
	}
}

func TestDropFullTextSidecar(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ft.nsf")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Session("ada").Create(memo("x"))
	db.EnableFullText()
	db.Close()
	db2, _ := Open(path, Options{})
	defer db2.Close()
	if err := db2.DropFullTextSidecar(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".ft"); !os.IsNotExist(err) {
		t.Error("sidecar survived drop")
	}
	// Dropping again is fine.
	if err := db2.DropFullTextSidecar(); err != nil {
		t.Fatal(err)
	}
}

// TestFullTextSidecarFromBeforeRestoreIsRebuilt restores a database in
// place to an earlier point, leaving the sidecar the pre-restore copy
// saved. That sidecar indexes versions the restored copy never had, and its
// cursor is past USNs the restored copy reuses, so catching up from it
// would keep the stale terms and miss the new writes: it must be rebuilt.
func TestFullTextSidecarFromBeforeRestoreIsRebuilt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ft.nsf")
	setDir := filepath.Join(dir, "bak")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session("ada")
	kept := memo("yak")
	if err := s.Create(kept); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Backup(setDir); err != nil {
		t.Fatal(err)
	}
	kept.SetText("Subject", "zebra")
	if err := s.Update(kept); err != nil {
		t.Fatal(err)
	}
	for _, subj := range []string{"filler one", "filler two"} {
		if err := s.Create(memo(subj)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.EnableFullText(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, path + ".wal"} {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	restored, _, err := Restore(setDir, path, backup.RestoreOptions{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	rs := restored.Session("ada")
	if err := rs.Create(memo("newcomer")); err != nil {
		t.Fatal(err)
	}
	if err := restored.EnableFullText(); err != nil {
		t.Fatal(err)
	}
	for query, want := range map[string]int{"zebra": 0, "yak": 1, "newcomer": 1} {
		if hits, err := rs.Search(query); err != nil || len(hits) != want {
			t.Errorf("search %q: %d hits (%v), want %d", query, len(hits), err, want)
		}
	}
}
