package server

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/formula"
	"repro/internal/nsf"
	"repro/internal/store"
	"repro/internal/wire"
)

// dbConn opens apps/db.nsf as handle 1 on a connection of user's, driven
// through dispatch without a socket, and returns a function serving one
// request (a payload started with wire.NewEnc).
func dbConn(t testing.TB, s *Server, user string) func(req *wire.Enc) *wire.Enc {
	t.Helper()
	c := &connState{s: s, user: user, handles: map[uint32]*handleState{}, nextH: 1}
	serve := func(req *wire.Enc) *wire.Enc {
		c.dec = *wire.NewDec(req.Bytes()[1:])
		return c.dispatch(context.Background(), wire.Op(req.Bytes()[0]), &c.dec)
	}
	if resp := serve(wire.NewEnc(wire.OpOpenDB).Str("apps/db.nsf")); resp.Bytes()[1] != wire.StatusOK {
		t.Fatalf("open as %s: status %d", user, resp.Bytes()[1])
	}
	return serve
}

// scanConn is dbConn serving OpScan.
func scanConn(t testing.TB, s *Server, user string) func(src string, limit int, columns []string, cursor []byte) *wire.Enc {
	t.Helper()
	serve := dbConn(t, s, user)
	return func(src string, limit int, columns []string, cursor []byte) *wire.Enc {
		return serve(wire.NewEnc(wire.OpScan).U32(1).Str(src).U32(uint32(limit)).Columns(columns).Blob(cursor))
	}
}

// seedScanCorpus fills apps/db.nsf with documents covering every way a
// scan row can be built: Readers- and Authors-restricted documents, records
// chained over several pages, a column some notes lack, item names that
// differ from the column and from each other only in case, a type-0 item,
// and deletion stubs.
func seedScanCorpus(t *testing.T, db *core.Database) {
	t.Helper()
	sess := db.Session("ada")
	var doomed []nsf.UNID
	for i := 0; i < 60; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Form", []string{"Memo", "Reply", "memo"}[i%3])
		n.SetWithFlags("Subject", nsf.TextValue(fmt.Sprintf("doc %02d", i)), nsf.FlagSummary)
		n.SetNumber("Priority", float64(i%10))
		body := "short body"
		if i%9 == 0 {
			body = strings.Repeat("long body ", 3*store.PageSize/10) // a chained record
		}
		n.SetText("Body", body)
		if i%4 == 0 {
			n.SetText("Cc", "carol", "dave")
		}
		switch i % 6 {
		case 1:
			n.SetWithFlags("DocReaders", nsf.TextValue("ada"), nsf.FlagReaders|nsf.FlagSummary)
		case 2:
			n.SetWithFlags("DocAuthors", nsf.TextValue("ada", "bob"), nsf.FlagAuthors)
		case 3:
			n.SetWithFlags("DocReaders", nsf.TextValue("ada", "bob"), nsf.FlagReaders)
		}
		if i%5 == 0 {
			// A second item named like Subject in another case: a column
			// takes the first.
			n.Items = append(n.Items, nsf.Item{Name: "SUBJECT", Value: nsf.TextValue("shadowed")})
		}
		if i%7 == 0 {
			n.Items = append(n.Items, nsf.Item{Name: "Empty"}) // type 0
		}
		if err := sess.Create(n); err != nil {
			t.Fatal(err)
		}
		if i%8 == 3 {
			doomed = append(doomed, n.OID.UNID)
		}
	}
	for _, u := range doomed {
		if err := sess.Delete(u); err != nil {
			t.Fatal(err)
		}
	}
	var dup, empty, stubs int
	db.ScanAll(func(n *nsf.Note) bool {
		if n.IsStub() {
			stubs++
		}
		for _, it := range n.Items {
			if it.Name == "SUBJECT" {
				dup++
			}
			if it.Value.Type == 0 {
				empty++
			}
		}
		return true
	})
	if dup == 0 || empty == 0 || stubs != len(doomed) {
		t.Fatalf("corpus lost its edge cases: %d case-variant items, %d type-0 items, %d stubs", dup, empty, stubs)
	}
}

// TestScanRowsMatchDecodedNotes: every OpScan page is byte for byte the
// page the decode-everything recipe builds — each note decoded whole,
// admitted by CanRead, run through Selects, and each column encoded with
// Enc.Value from the note the formula left — for an editor and for a
// reader whom Readers items exclude, across several pages.
func TestScanRowsMatchDecodedNotes(t *testing.T) {
	s, _ := newHookServer(t, Options{}, nil)
	db, _ := s.DB("apps/db.nsf")
	db.ACL().Set("bob", acl.Reader)
	seedScanCorpus(t, db)
	columns := []string{"Subject", "SUBJECT", "subject", "Cc", "Empty", "Priority", "Form", "Body", "DocReaders", "NoSuchItem"}
	formulas := []string{
		`SELECT Priority > 4`,
		`SELECT @All`,
		`FIELD Subject := "x"; SELECT @All`,
		`SELECT Form = "Memo"`,
	}
	const limit = 7
	for _, user := range []string{"ada", "bob"} {
		scan := scanConn(t, s, user)
		id := db.Session(user).Identity()
		for _, src := range formulas {
			sel := formula.MustCompile(src)
			// The recipe: every selected document, as the formula left it.
			var notes []*nsf.Note
			db.ScanAll(func(n *nsf.Note) bool {
				if n.IsStub() || n.Class != nsf.ClassDocument || !id.CanRead(n) {
					return true
				}
				ok, err := sel.Selects(n, &formula.Context{UserName: user})
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					notes = append(notes, n.Clone())
				}
				return true
			})
			if len(notes) == 0 {
				t.Fatalf("%s, %s: the recipe selects nothing", user, src)
			}
			var cursor []byte
			for start := 0; ; start += limit {
				end := min(start+limit, len(notes))
				want := wire.NewScanPage(limit, 1<<30)
				var last nsf.NoteID
				for _, n := range notes[start:end] {
					want.ScanRow(n.ID, n.OID.UNID)
					for _, col := range columns {
						if n.Has(col) {
							want.Value(n.Get(col))
						} else {
							want.NoValue()
						}
					}
					last = n.ID
				}
				more := end < len(notes)
				wantResp := want.EndScan(more, encodeScanCursor(s.opts.Name, last))
				got := scan(src, limit, columns, cursor)
				if !bytes.Equal(got.Bytes(), wantResp.Bytes()) {
					t.Fatalf("%s, %s, rows %d..%d: page differs from the decoded notes'\n got %x\nwant %x",
						user, src, start, end, got.Bytes(), wantResp.Bytes())
				}
				if !more {
					break
				}
				cursor = encodeScanCursor(s.opts.Name, last)
			}
		}
	}
}

// TestScanPageAllocsDoNotGrowWithNotesVisited: a page whose formula passes
// over most notes allocates as much on the server whether it visits 200
// notes or 2,000. Only the last ten notes are selected, so both pages
// return the same ten rows. AllocsPerRun counts every goroutine's
// allocations, so the Creates' index upkeep is drained first and each
// server is closed before the next is built.
func TestScanPageAllocsDoNotGrowWithNotesVisited(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects, so pooling allocates")
	}
	allocs := map[int]float64{}
	for _, total := range []int{200, 2000} {
		s, _ := newHookServer(t, Options{}, nil)
		db, _ := s.DB("apps/db.nsf")
		sess := db.Session("ada")
		for i := 0; i < total; i++ {
			n := nsf.NewNote(nsf.ClassDocument)
			n.SetText("Form", "Memo")
			n.SetText("Subject", fmt.Sprintf("doc %d", i))
			n.SetText("From", "ada")
			n.SetText("Body", strings.Repeat("body ", 200))
			n.SetNumber("Priority", 0)
			if i >= total-10 {
				n.SetNumber("Priority", 9)
			}
			if err := sess.Create(n); err != nil {
				t.Fatal(err)
			}
		}
		db.Refresh()
		scan := scanConn(t, s, "ada")
		columns := []string{"Subject", "From"}
		allocs[total] = testing.AllocsPerRun(10, func() {
			resp := scan("SELECT Priority > 4", 0, columns, nil)
			if resp.Bytes()[1] != wire.StatusOK {
				t.Fatalf("scan: status %d", resp.Bytes()[1])
			}
			resp.Release()
		})
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("server allocations per page: %.0f visiting 200 notes, %.0f visiting 2000", allocs[200], allocs[2000])
	if allocs[2000] > allocs[200]+8 {
		t.Errorf("a page visiting 2000 notes made %.0f allocations, one visiting 200 made %.0f: the walk allocates per note",
			allocs[2000], allocs[200])
	}
}
