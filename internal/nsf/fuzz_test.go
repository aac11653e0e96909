package nsf

import (
	"bytes"
	"testing"
)

// FuzzDecodeNote throws arbitrary bytes at the note decoder. DecodeNote
// guards the trust boundary twice over — every wire frame and every WAL
// record passes through it — so it must never panic, and anything it
// accepts must survive a re-encode/re-decode round trip unchanged. The
// projecting decoder runs beside it under a keep derived from the input:
// it rejects whatever DecodeNote rejects, and otherwise returns exactly
// DecodeNote's items that pass keep, in order. So do the item iterator
// (each raw value decoding to its item's value), AppendProjected (whose
// record decodes to the projection) and DecodeNoteInto through an arena
// reused from a previous decode. The owned decode, DecodeNoteOwned,
// rejects the same inputs and otherwise returns a note equal to
// DecodeNote's.
func FuzzDecodeNote(f *testing.F) {
	f.Add(EncodeNote(sampleNote()))
	f.Add(EncodeNote(NewNote(ClassDocument)))
	stub := NewNote(ClassDocument)
	stub.Flags |= FlagDeleted
	f.Add(EncodeNote(stub))
	full := EncodeNote(sampleNote())
	f.Add(full[:len(full)/2])
	f.Add([]byte{})
	f.Add([]byte{codecVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		keep := fuzzKeep(data)
		n, err := DecodeNote(data)
		p, perr := DecodeNoteItems(data, keep)
		var it ItemIter
		var raw []RawItem
		if it.Reset(data, nil) == nil {
			for it.Next() {
				raw = append(raw, it.Item())
			}
		}
		rec, rerr := AppendProjected([]byte("prefix"), data, keep)
		var into Note
		var arena Arena
		DecodeNoteInto(&into, &arena, EncodeNote(sampleNote()), nil)
		arena.Reset()
		ierr := DecodeNoteInto(&into, &arena, data, keep)
		var owned Note
		oerr := DecodeNoteOwned(&owned, data)
		names := [][]byte{[]byte("SUBJECT"), []byte("missing")}
		for _, ri := range raw {
			names = append(names, ri.Name)
		}
		values := make([][]byte, len(names))
		verr := ItemValues(data, names, values)
		if err != nil {
			if perr == nil || it.Err() == nil || rerr == nil || ierr == nil || verr == nil || oerr == nil {
				t.Fatalf("DecodeNote rejected (%v) what another decoder accepted: items %v, iterator %v, projection %v, into %v, values %v, owned %v",
					err, perr, it.Err(), rerr, ierr, verr, oerr)
			}
			if string(rec) != "prefix" {
				t.Fatalf("a rejected projection left %q behind", rec)
			}
			return // rejection is fine; panicking is not
		}
		if perr != nil || it.Err() != nil || rerr != nil || ierr != nil || verr != nil || oerr != nil {
			t.Fatalf("DecodeNote accepted what another decoder rejected: items %v, iterator %v, projection %v, into %v, values %v, owned %v",
				perr, it.Err(), rerr, ierr, verr, oerr)
		}
		if !noteEqual(&owned, n) {
			t.Fatalf("DecodeNoteOwned = %+v, want %+v", &owned, n)
		}
		for i, name := range names {
			want, ok := n.Item(string(name))
			if ok != (values[i] != nil) {
				t.Fatalf("ItemValues(%q) = %x, Note.Item found it: %v", name, values[i], ok)
			}
			if v, err := DecodeValue(values[i]); ok && (err != nil || !v.Equal(want.Value) || v.Type != want.Value.Type) {
				t.Fatalf("ItemValues(%q) decodes to %+v (%v), Note.Get's %+v", name, v, err, want.Value)
			}
		}
		if len(raw) != len(n.Items) {
			t.Fatalf("iterator walked %d items, DecodeNote decoded %d", len(raw), len(n.Items))
		}
		for i, ri := range raw {
			v, err := DecodeValue(ri.Value)
			want := n.Items[i]
			if err != nil || string(ri.Name) != want.Name || ri.Flags != want.Flags || ri.Rev != want.Rev || !v.Equal(want.Value) || v.Type != want.Value.Type {
				t.Fatalf("iterator item %d = %q %v %d %x (%v), DecodeNote's %+v", i, ri.Name, ri.Flags, ri.Rev, ri.Value, err, want)
			}
		}
		if !bytes.HasPrefix(rec, []byte("prefix")) {
			t.Fatalf("projection lost dst's bytes: %q", rec)
		}
		proj, err := DecodeNote(rec[len("prefix"):])
		if err != nil || !noteEqual(proj, p) {
			t.Fatalf("projected record decodes to %+v (%v), want %+v", proj, err, p)
		}
		if !noteEqual(&into, p) {
			t.Fatalf("DecodeNoteInto through a reused arena = %+v, want %+v", &into, p)
		}
		want := *n
		want.Items = nil
		for _, it := range n.Items {
			if keep([]byte(it.Name), it.Flags) {
				want.Items = append(want.Items, it)
			}
		}
		if !noteEqual(&want, p) {
			t.Fatalf("projection differs from the filtered full decode:\n got %+v\nwant %+v", p, &want)
		}
		re := EncodeNote(n)
		n2, err := DecodeNote(re)
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !noteEqual(n, n2) {
			t.Fatalf("re-encode round trip changed the note:\n got %+v\nwant %+v", n2, n)
		}
		if !bytes.Equal(re, EncodeNote(n2)) {
			t.Fatal("encoding is not stable across round trips")
		}
	})
}

// fuzzKeep derives an item filter from the input's last byte: it keeps an
// item when a hash of that byte, the item's name and its flags is even, so
// the fuzzer steers which items are skipped.
func fuzzKeep(data []byte) func([]byte, ItemFlags) bool {
	var seed byte
	if len(data) > 0 {
		seed = data[len(data)-1]
	}
	return func(name []byte, flags ItemFlags) bool {
		h := seed ^ byte(flags)
		for _, c := range name {
			h = h*31 + c
		}
		return h&1 == 0
	}
}
