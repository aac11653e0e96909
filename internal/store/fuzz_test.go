package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/nsf"
)

// FuzzReplayWAL hands crash recovery a WAL of one frame whose kind is the
// input's first byte and whose payload is the rest, framed with a valid CRC
// so the fuzzer reaches the record decoders instead of the checksum, beside
// a valid page file. Open must return an error or a store that passes
// Verify; it must never panic, and a page image it writes must lie inside
// the page count its own header records and grow the file only by the
// pages that count adds.
func FuzzReplayWAL(f *testing.F) {
	dir := f.TempDir()
	tmpl := filepath.Join(dir, "tmpl.nsf")
	// Deterministic contents: every fuzz worker builds its own template,
	// and the seeds must fit each one.
	s, err := Open(tmpl, Options{ReplicaID: nsf.ReplicaID{1}, CheckpointEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	var unids []nsf.UNID
	for i := 0; i < 20; i++ {
		n := gcNote(nsf.Timestamp(i+1), "fuzz")
		n.OID.UNID = nsf.UNID{byte(i + 1)}
		n.SetText("Body", string(bytes.Repeat([]byte{'x'}, i*50)))
		if err := s.Put(n); err != nil {
			f.Fatal(err)
		}
		unids = append(unids, n.OID.UNID)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	page, err := os.ReadFile(tmpl)
	if err != nil {
		f.Fatal(err)
	}
	usn := uint64(21)

	note := gcNote(99, "seed")
	note.OID.UNID = unids[2]
	note.ID = 3
	enc := nsf.AppendNote(nil, note)
	f.Add(append([]byte{walPut}, enc...))
	f.Add(append([]byte{walDelete}, unids[4][:]...))
	batch := appendSubRecord(nil, walPut, usn, enc)
	batch = appendSubRecord(batch, walDelete, usn+1, unids[7][:])
	f.Add(append([]byte{walBatch}, batch...))
	images := []byte{walPages, 0, 0, 0, 0}
	images = append(images, page[:PageSize]...)
	images = append(images, 1, 0, 0, 0)
	images = append(images, page[PageSize:2*PageSize]...)
	f.Add(images)
	// A header counting 2^32-1 pages and an image near the top of that
	// range: in bounds by the header's count, terabytes past the file's end.
	far := append([]byte{walPages}, images[1:1+pageImageSize]...)
	binary.LittleEndian.PutUint32(far[1+4+hdrOffCount:], math.MaxUint32)
	far = append(far, 0xfe, 0xff, 0xff, 0xff)
	far = append(far, page[PageSize:2*PageSize]...)
	f.Add(far)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		path := filepath.Join(t.TempDir(), "db.nsf")
		if err := os.WriteFile(path, page, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".wal", appendFrame(nil, data[0], usn, data[1:]), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, Options{CheckpointEvery: -1})
		if err != nil {
			// A refused log may have written its images, but no more.
			if size := fileSize(t, path); size > int64(len(page)+len(data)) {
				t.Fatalf("refused log grew the page file to %d bytes", size)
			}
			return
		}
		defer s.Close()
		if problems := s.Verify(); len(problems) != 0 {
			t.Fatalf("recovered store fails verification: %v", problems)
		}
		if size := fileSize(t, path); size > int64(s.Stats().Pages)*PageSize {
			t.Fatalf("page file of %d pages is %d bytes", s.Stats().Pages, size)
		}
	})
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}
