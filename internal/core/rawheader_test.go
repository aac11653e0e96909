package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nsf"
	"repro/internal/store"
)

// header is n without its items: what RawHeader returns for it.
func header(n *nsf.Note) nsf.Note {
	h := *n
	h.Items = nil
	return h
}

// TestRawHeaderMatchesRawGet: for a live note, a deletion stub, a
// selection stub, a record chained over several pages and a missing UNID,
// RawHeader returns RawGet's note without its items, or RawGet's error;
// a record corrupted on disk is rejected by both.
func TestRawHeaderMatchesRawGet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hdr.nsf")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session("ada")
	live, stub, chained, bad := memo("live"), memo("stub"), memo("chained"), memo("bad")
	chained.SetText("Body", strings.Repeat("x", 3*store.PageSize))
	bad.Set("CorruptMe", nsf.RawValue([]byte("payload")))
	for _, n := range []*nsf.Note{live, stub, chained, bad} {
		if err := s.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(stub.OID.UNID); err != nil {
		t.Fatal(err)
	}
	sel := &nsf.Note{
		OID:   nsf.OID{UNID: nsf.NewUNID(), Seq: 3, SeqTime: 77},
		Class: nsf.ClassDocument,
		Flags: nsf.FlagDeleted | nsf.FlagSelStub,
	}
	if err := db.RawPut(sel); err != nil {
		t.Fatal(err)
	}
	unids := []nsf.UNID{live.OID.UNID, stub.OID.UNID, sel.OID.UNID, chained.OID.UNID, bad.OID.UNID, nsf.NewUNID()}
	check := func(db *Database, corrupt bool) {
		t.Helper()
		for i, u := range unids {
			n, gerr := db.RawGet(u)
			h, herr := db.RawHeader(u)
			switch {
			case i == len(unids)-1:
				if !errors.Is(gerr, ErrNotFound) || !errors.Is(herr, ErrNotFound) {
					t.Fatalf("missing UNID: RawGet %v, RawHeader %v, want ErrNotFound", gerr, herr)
				}
			case corrupt && u == bad.OID.UNID:
				if gerr == nil || herr == nil {
					t.Fatalf("corrupted record: RawGet %v, RawHeader %v, want both rejected", gerr, herr)
				}
				if h.OID != (nsf.OID{}) || h.ID != 0 {
					t.Fatalf("a rejected record returned header %+v", h)
				}
			case gerr != nil || herr != nil:
				t.Fatalf("note %d: RawGet %v, RawHeader %v", i, gerr, herr)
			case h.ID != n.ID || h.OID != n.OID || h.Class != n.Class || h.Flags != n.Flags ||
				h.Created != n.Created || h.Modified != n.Modified || h.Items != nil:
				t.Fatalf("note %d: RawHeader = %+v, want %+v", i, h, header(n))
			}
		}
	}
	check(db, false)
	if h, _ := db.RawHeader(stub.OID.UNID); !h.IsStub() {
		t.Fatal("the deletion stub's header is not a stub")
	}
	if h, _ := db.RawHeader(sel.OID.UNID); !h.IsSelStub() {
		t.Fatal("the selection stub's header is not a selection stub")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Give the item an unknown value type on disk: the name is followed by
	// its flags byte, a one-byte revision and the type byte.
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(file, []byte("CorruptMe"))
	if at < 0 || bytes.Count(file, []byte("CorruptMe")) != 1 {
		t.Fatalf("the item name is in the page file %d times, want once", bytes.Count(file, []byte("CorruptMe")))
	}
	file[at+len("CorruptMe")+2] = 0x7f
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	// Open rejects the file (it decodes every note to find the design), so
	// the corrupted store is opened bare.
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check(&Database{st: st}, true)
}

// TestRawHeaderAllocatesNothing: a RawHeader whose pooled buffer has grown
// makes no allocation, so it decodes no note.
func TestRawHeaderAllocatesNothing(t *testing.T) {
	db := openDB(t, Options{})
	n := memo("alloc")
	n.SetText("Body", strings.Repeat("b", 2*store.PageSize))
	if err := db.Session("ada").Create(n); err != nil {
		t.Fatal(err)
	}
	if !raceEnabled {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := db.RawHeader(n.OID.UNID); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("a warm RawHeader made %.1f allocations, want 0", allocs)
		}
	} else if _, err := db.RawHeader(n.OID.UNID); err != nil {
		t.Fatal(err)
	}
}

// TestRawPutLeavesArgument: RawPut stores a note with the local NoteID and
// a local Modified stamp, but the note passed in keeps the NoteID and
// Modified it came with, new or replacing a stored version.
func TestRawPutLeavesArgument(t *testing.T) {
	db := openDB(t, Options{})
	n := memo("raw")
	n.ID = 999
	n.OID = nsf.OID{UNID: nsf.NewUNID(), Seq: 1, SeqTime: 10}
	n.Modified = 5
	for seq := uint32(1); seq <= 2; seq++ {
		n.OID.Seq = seq
		want := n.Clone()
		if err := db.RawPut(n); err != nil {
			t.Fatal(err)
		}
		if n.ID != want.ID || n.Modified != want.Modified || n.OID != want.OID || len(n.Items) != len(want.Items) {
			t.Fatalf("put %d: RawPut changed its argument to %+v, was %+v", seq, n, want)
		}
		got, err := db.RawGet(n.OID.UNID)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID == 999 || got.ID == 0 || got.Modified == 5 || got.OID != n.OID {
			t.Fatalf("put %d: stored %+v, want a local NoteID and Modified", seq, got)
		}
	}
}
