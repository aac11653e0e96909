package store

import (
	"cmp"
	"context"

	"repro/internal/nsf"
)

// The store hands out records; tests that check notes decode them with
// these helpers.

// getByUNID decodes the stored record of the note unid names.
func getByUNID(s *Store, unid nsf.UNID) (*nsf.Note, error) {
	rec, err := s.AppendRecord(nil, unid)
	if err != nil {
		return nil, err
	}
	return nsf.DecodeNote(rec)
}

// decodeEach adapts a note callback to a record walk. A record that does
// not decode stops the walk with its error in *err.
func decodeEach(fn func(*nsf.Note) bool, err *error) func([]byte) bool {
	return func(rec []byte) bool {
		n, derr := nsf.DecodeNote(rec)
		if derr != nil {
			*err = derr
			return false
		}
		return fn(n)
	}
}

// scanFrom is ScanRecords with each record decoded.
func scanFrom(ctx context.Context, s *Store, after nsf.NoteID, keep func([]byte, nsf.ItemFlags) bool, fn func(*nsf.Note) bool) error {
	var derr error
	err := s.ScanRecords(ctx, after, keep, decodeEach(fn, &derr))
	return cmp.Or(err, derr)
}

// scanAll calls fn for every note in NoteID order until fn returns false.
func scanAll(s *Store, fn func(*nsf.Note) bool) error {
	return scanFrom(context.Background(), s, 0, nil, fn)
}

// scanSinceNotes is ScanSince with each record decoded.
func scanSinceNotes(ctx context.Context, s *Store, since Cursor, keep func([]byte, nsf.ItemFlags) bool, fn func(*nsf.Note) bool) (Cursor, error) {
	var derr error
	dec := decodeEach(fn, &derr)
	next, err := s.ScanSince(ctx, since, keep, func(_ uint64, rec []byte) bool { return dec(rec) })
	return next, cmp.Or(err, derr)
}
