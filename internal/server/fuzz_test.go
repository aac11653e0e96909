package server

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeScanCursor throws arbitrary cursors at the scan handler's
// cursor parser: a cursor is opaque to the client, so whatever comes back
// is untrusted. It must never panic, and a cursor it accepts begins with
// the cursor this server would mint for the NoteID it yields.
func FuzzDecodeScanCursor(f *testing.F) {
	f.Add(encodeScanCursor("hub", 42))
	f.Add(encodeScanCursor("other", 7))
	f.Add([]byte{})
	f.Add([]byte{scanCursorVersion})
	// A name length of 2^64-1, which wraps a length check that adds 4.
	f.Add(append(binary.AppendUvarint([]byte{scanCursorVersion}, ^uint64(0)), 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, cursor []byte) {
		id, err := decodeScanCursor(cursor, "hub")
		if err != nil || len(cursor) == 0 {
			return
		}
		if mint := encodeScanCursor("hub", id); !bytes.HasPrefix(cursor, mint) {
			t.Fatalf("cursor %x accepted as NoteID %d, which mints %x", cursor, id, mint)
		}
	})
}
