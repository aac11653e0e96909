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
// DecodeNote's items that pass keep, in order.
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
		if err != nil {
			if perr == nil {
				t.Fatalf("DecodeNote rejected (%v) what DecodeNoteItems accepted", err)
			}
			return // rejection is fine; panicking is not
		}
		if perr != nil {
			t.Fatalf("DecodeNoteItems rejected what DecodeNote accepted: %v", perr)
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
