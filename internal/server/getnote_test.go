package server

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/store"
	"repro/internal/wire"
)

// refGetReply is the OpGetNote reply as the server built it before a Get
// shipped its stored record: the note decoded whole, a stub read as not
// found, CanRead checked on the whole note, and the note re-encoded with
// Enc.Note.
func refGetReply(db *core.Database, user string, unid nsf.UNID) *wire.Enc {
	n, err := db.RawGet(unid)
	if err == nil && n.IsStub() {
		err = core.ErrNotFound
	}
	if err == nil && !db.Session(user).Identity().CanRead(n) {
		err = fmt.Errorf("%w: %s may not read %s", core.ErrAccessDenied, user, unid)
	}
	if err != nil {
		return wire.NewResp(wire.OpGetNote, wire.StatusError).Str(err.Error())
	}
	return wire.NewResp(wire.OpGetNote, wire.StatusOK).Note(n)
}

// churnScanCorpus updates the scan corpus after seedScanCorpus: records
// grown into chains and chains shrunk, items of one name added twice,
// documents restricted to a reader list bob is on only as an author, and
// access items dropped. It returns the UNIDs of every note the database
// holds, stubs included.
func churnScanCorpus(t *testing.T, db *core.Database) []nsf.UNID {
	t.Helper()
	var unids []nsf.UNID
	db.ScanAll(func(n *nsf.Note) bool {
		unids = append(unids, n.OID.UNID)
		return true
	})
	sess := db.Session("ada")
	for i, u := range unids {
		if i%3 != 0 {
			continue
		}
		n, err := sess.Get(u)
		if err != nil {
			continue // a stub
		}
		switch i % 4 {
		case 0:
			if len(n.Text("Body")) > store.PageSize {
				n.SetText("Body", "shrunk")
			} else {
				n.SetText("Body", strings.Repeat("grown ", store.PageSize/3))
			}
		case 1:
			n.Items = append(n.Items, nsf.Item{Name: "Tag", Value: nsf.TextValue("one")},
				nsf.Item{Name: "TAG", Value: nsf.TextValue("two", "three")})
		case 2:
			n.SetWithFlags("DocReaders", nsf.TextValue("carol"), nsf.FlagReaders)
			n.SetWithFlags("DocAuthors", nsf.TextValue("bob"), nsf.FlagAuthors)
		case 3:
			n.Remove("DocReaders")
			n.SetTime("Touched", nsf.Timestamp(i))
		}
		if err := sess.Update(n); err != nil {
			t.Fatal(err)
		}
	}
	return unids
}

// TestGetReplyMatchesDecodedNote: on a churned corpus — Readers-restricted
// and Authors-only documents, stubs, records chained over several pages,
// notes with two items of one name — every OpGetNote reply is byte for
// byte the reply the decode-and-re-encode handler built, for an editor and
// for a reader whom Readers items exclude; so are the replies for a
// missing UNID, a stub and an unreadable document, status and error text.
func TestGetReplyMatchesDecodedNote(t *testing.T) {
	s, _ := newHookServer(t, Options{}, nil)
	db, _ := s.DB("apps/db.nsf")
	db.ACL().Set("bob", acl.Reader)
	seedScanCorpus(t, db)
	unids := append(churnScanCorpus(t, db), nsf.NewUNID())
	for _, user := range []string{"ada", "bob"} {
		get := dbConn(t, s, user)
		kinds := map[byte]int{}
		for _, u := range unids {
			want := refGetReply(db, user, u)
			got := get(wire.NewEnc(wire.OpGetNote).U32(1).UNID(u))
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s, Get %s: reply differs from the decoded note's\n got %q\nwant %q", user, u, got.Bytes(), want.Bytes())
			}
			kinds[got.Bytes()[1]]++
		}
		if kinds[wire.StatusOK] == 0 || kinds[wire.StatusError] < 2 {
			t.Fatalf("%s: replies by status %v, want documents and errors", user, kinds)
		}
	}
	var chained, dup int
	db.ScanAll(func(n *nsf.Note) bool {
		if len(nsf.EncodeNote(n)) > store.PageSize {
			chained++
		}
		for i := range n.Items {
			for j := range i {
				if nsf.EqualNames(n.Items[i].Name, n.Items[j].Name) {
					dup++
				}
			}
		}
		return true
	})
	if chained == 0 || dup == 0 {
		t.Fatalf("corpus lost its edge cases: %d chained records, %d repeated names", chained, dup)
	}
}

// TestGetAllocsDoNotGrowWithItems: the server's allocations for a Get are
// the same for a 6-item and a 200-item note, and at most 2: the record is
// read into the connection's buffer and shipped as stored, and only the
// header and access items are decoded, into the connection's scratch.
func TestGetAllocsDoNotGrowWithItems(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects, so pooling allocates")
	}
	s, _ := newHookServer(t, Options{}, nil)
	db, _ := s.DB("apps/db.nsf")
	sess := db.Session("ada")
	notes := map[int]nsf.UNID{}
	for _, items := range []int{6, 200} {
		n := nsf.NewNote(nsf.ClassDocument)
		for i := 0; len(n.Items) < items; i++ {
			switch i % 3 {
			case 0:
				n.SetText(fmt.Sprintf("T%d", i), "a", "b", "c", strings.Repeat("d", i))
			case 1:
				n.SetNumber(fmt.Sprintf("N%d", i), float64(i), 1)
			default:
				n.SetTime(fmt.Sprintf("D%d", i), nsf.Timestamp(i))
			}
		}
		if err := sess.Create(n); err != nil {
			t.Fatal(err)
		}
		notes[items] = n.OID.UNID
	}
	db.Refresh()
	get := dbConn(t, s, "ada")
	allocs := map[int]float64{}
	for items, u := range notes {
		req := wire.NewEnc(wire.OpGetNote).U32(1).UNID(u)
		allocs[items] = testing.AllocsPerRun(100, func() {
			resp := get(req)
			if resp.Bytes()[1] != wire.StatusOK {
				t.Fatalf("get: status %d", resp.Bytes()[1])
			}
			resp.Release()
		})
	}
	t.Logf("server allocations per Get: %.1f for 6 items, %.1f for 200", allocs[6], allocs[200])
	if allocs[200] != allocs[6] || allocs[200] > 2 {
		t.Errorf("a Get of 6 items made %.1f allocations and one of 200 made %.1f, want the same and at most 2", allocs[6], allocs[200])
	}
}

// TestFetchReplyMatchesEncodedNotes: an OpFetch reply over a churned
// corpus — stubs, records chained over several pages, a UNID that never
// existed and one hard-deleted since — is byte for byte the reply built by
// re-encoding each note RawGet returns with Enc.Note, skipping the UNIDs
// RawGet does not find: the stored records shipped as stored are the same
// wire bytes.
func TestFetchReplyMatchesEncodedNotes(t *testing.T) {
	s, _ := newHookServer(t, Options{}, nil)
	db, _ := s.DB("apps/db.nsf")
	seedScanCorpus(t, db)
	unids := churnScanCorpus(t, db)
	gone := unids[len(unids)/2]
	if err := db.RawDelete(gone); err != nil {
		t.Fatal(err)
	}
	unids = append(unids, nsf.NewUNID())
	req := wire.NewEnc(wire.OpFetch).U32(1).U32(uint32(len(unids)))
	want := wire.NewResp(wire.OpFetch, wire.StatusOK).U32(0)
	var shipped, stubs int
	for _, u := range unids {
		req.UNID(u)
		n, err := db.RawGet(u)
		if errors.Is(err, core.ErrNotFound) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want.Note(n)
		shipped++
		if n.IsStub() {
			stubs++
		}
	}
	want.SetU32(2, uint32(shipped))
	if shipped != len(unids)-2 || stubs == 0 {
		t.Fatalf("corpus lost its edge cases: %d of %d UNIDs shipped, %d stubs", shipped, len(unids), stubs)
	}
	got := dbConn(t, s, "ada")(req)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("fetch reply differs from the re-encoded notes'\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
}
