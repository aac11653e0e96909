package nsf_test

import (
	"testing"

	"repro/internal/nsf"
	"repro/internal/workload"
)

// benchNote is the benchmark corpus's document: Form, Subject, From,
// Category, Priority and a 1 KiB Body.
func benchNote() []byte {
	return nsf.EncodeNote(workload.New(1).Document(1024))
}

var sinkNote *nsf.Note

// BenchmarkDecodeNote decodes a whole note, Body included: what a point
// read or a whole-note scan pays per note.
func BenchmarkDecodeNote(b *testing.B) {
	buf := benchNote()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := nsf.DecodeNote(buf)
		if err != nil {
			b.Fatal(err)
		}
		sinkNote = n
	}
}

// BenchmarkDecodeNoteItems decodes the items a projected scan page keeps
// (the selection formula's Priority and the Subject and From columns) and
// skips the rest, Body included.
func BenchmarkDecodeNoteItems(b *testing.B) {
	buf := benchNote()
	keep := nsf.KeepItems([]string{"Subject", "From", "Priority"}, nsf.FlagReaders|nsf.FlagAuthors)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := nsf.DecodeNoteItems(buf, keep)
		if err != nil {
			b.Fatal(err)
		}
		sinkNote = n
	}
}
