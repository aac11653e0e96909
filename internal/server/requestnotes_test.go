package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/nsf"
	"repro/internal/view"
	"repro/internal/wire"
)

// TestRequestDecodeAllocs counts what decoding the notes of a 64-note
// PutBatch body allocates on a connection that has served one before: the
// same for 6 and for 60 items a note, one string copy of the body.
func TestRequestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the regression guarded under -race")
	}
	allocs := map[int]float64{}
	for _, items := range []int{6, 60} {
		enc := wire.NewEnc(wire.OpPutBatch)
		for i := 0; i < 64; i++ {
			enc.Note(variedDoc(i, items))
		}
		body := enc.Bytes()[1:]
		c := &connState{}
		allocs[items] = testing.AllocsPerRun(20, func() {
			d := wire.NewDec(body)
			if notes := c.requestNotes(d, 64); d.Err() != nil || len(notes) != 64 {
				t.Fatalf("decoded %d notes: %v", len(notes), d.Err())
			}
		})
	}
	t.Logf("allocations per 64-note body: %.1f for 6 items a note, %.1f for 60", allocs[6], allocs[60])
	if allocs[6] != allocs[60] || allocs[60] > 1 {
		t.Errorf("a body of 6-item notes made %.1f allocations and one of 60-item notes %.1f, want the same and at most 1", allocs[6], allocs[60])
	}
}

// variedDoc is document i with items items: text lists, numbers and times
// whose sizes vary with i.
func variedDoc(i, items int) *nsf.Note {
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", fmt.Sprintf("doc %d of %d items", i, items))
	for j := 1; len(n.Items) < items; j++ {
		switch j % 3 {
		case 0:
			n.SetText(fmt.Sprintf("T%d", j), strings.Repeat("t", i%7), fmt.Sprintf("entry %d.%d", i, j))
		case 1:
			n.SetNumber(fmt.Sprintf("N%d", j), float64(i), float64(j), float64(i*j))
		default:
			n.SetTime(fmt.Sprintf("D%d", j), nsf.Timestamp(i+j))
		}
	}
	return n
}

// TestRequestNotesDoNotOutliveTheirRequest has two connections each
// alternate PutBatch and Update, the notes of every request decoded into
// the note slab and arena its connection reuses, into a database with a
// view and full text: every stored document, and every view entry, must
// equal what was sent last.
func TestRequestNotesDoNotOutliveTheirRequest(t *testing.T) {
	s, addr := newHookServer(t, Options{}, nil)
	db, _ := s.DB("apps/db.nsf")
	def, err := view.NewDefinition("subjects", "SELECT @All",
		view.Column{Title: "Subject", ItemName: "Subject", Sorted: true},
		view.Column{Title: "T3", ItemName: "T3"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddView(nil, def); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableFullText(); err != nil {
		t.Fatal(err)
	}
	const conns, rounds, batch = 2, 24, 16
	sent := make([]map[nsf.UNID]*nsf.Note, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		sent[c] = map[nsf.UNID]*nsf.Note{}
		cl, err := wire.Dial(addr, "ada", "ada-pw")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		rdb, err := cl.OpenDB("apps/db.nsf")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c int, rdb *wire.RemoteDB) {
			defer wg.Done()
			var mine []nsf.UNID
			for r := 0; r < rounds; r++ {
				if (r+c)%2 == 0 || len(mine) == 0 {
					notes := make([]*nsf.Note, batch)
					for i := range notes {
						notes[i] = variedDoc(1000*c+batch*r+i, 1+(r*7+i)%23)
						sent[c][notes[i].OID.UNID] = notes[i]
						mine = append(mine, notes[i].OID.UNID)
					}
					if n, err := rdb.PutBatch(notes); err != nil || n != batch {
						t.Errorf("connection %d round %d: PutBatch stored %d: %v", c, r, n, err)
						return
					}
					continue
				}
				unid := mine[(r*5)%len(mine)]
				n := variedDoc(1000*c+r, 2+(r*3)%29)
				n.OID.UNID = unid
				if err := rdb.Update(n); err != nil {
					t.Errorf("connection %d round %d: Update: %v", c, r, err)
					return
				}
				sent[c][unid] = n
			}
		}(c, rdb)
	}
	wg.Wait()
	db.Refresh()
	subjects := map[nsf.UNID]string{}
	for c := range sent {
		for unid, want := range sent[c] {
			got, err := db.RawGet(unid)
			if err != nil {
				t.Fatal(err)
			}
			if !sameItems(got, want) {
				t.Fatalf("stored %s = %+v, sent %+v", unid, got.Items, want.Items)
			}
			subjects[unid] = want.Text("Subject")
		}
	}
	ix, _ := db.View("subjects")
	if ix.Len() != len(subjects) {
		t.Fatalf("view holds %d entries, want %d", ix.Len(), len(subjects))
	}
	for _, e := range ix.Entries() {
		if got := e.ColumnText(0); got != subjects[e.UNID] {
			t.Fatalf("view entry %s shows %q, want %q", e.UNID, got, subjects[e.UNID])
		}
	}
}

// sameItems reports whether got holds want's items, in order, revisions
// aside.
func sameItems(got, want *nsf.Note) bool {
	if len(got.Items) != len(want.Items) {
		return false
	}
	for i, w := range want.Items {
		g := got.Items[i]
		if g.Name != w.Name || g.Flags != w.Flags || g.Value.Type != w.Value.Type || !g.Value.Equal(w.Value) {
			return false
		}
	}
	return true
}
