package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/nsf"
	"repro/internal/vfs"
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

// FuzzScanArchive hands the archive readers one arbitrary seg-*.walseg file,
// its header CRC fixed up so the fuzzer reaches the header's claims and the
// frames instead of the checksum. ListSegments, VerifySegment and
// ScanArchive must return errors, never panic; ScanArchive must deliver
// USNs one apart and report the last it delivered; and a segment that
// verifies must scan to exactly the records its header claims.
func FuzzScanArchive(f *testing.F) {
	dir := f.TempDir()
	arc := filepath.Join(dir, "walog")
	s, err := Open(filepath.Join(dir, "db.nsf"), Options{ReplicaID: nsf.ReplicaID{1}, CheckpointEvery: -1, ArchiveDir: arc})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		n := gcNote(nsf.Timestamp(i+1), "fuzz")
		n.OID.UNID = nsf.UNID{byte(i + 1)}
		if err := s.Put(n); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Delete(nsf.UNID{2}); err != nil {
		f.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	sealed, err := os.ReadFile(filepath.Join(arc, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	f.Add(sealed[:len(sealed)-3])
	f.Add(sealed[:segHeaderSize])

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= segHeaderSize {
			data = bytes.Clone(data)
			binary.LittleEndian.PutUint32(data[32:], crc32.Checksum(data[8:32], crcTable))
		}
		arc := t.TempDir()
		if err := os.WriteFile(filepath.Join(arc, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		segs, err := ListSegments(vfs.OS, arc)
		if err != nil {
			return
		}
		verified := true
		for _, seg := range segs {
			if _, err := VerifySegment(vfs.OS, seg); err != nil {
				verified = false
			}
		}
		var delivered, last uint64
		applied, err := ScanArchive(vfs.OS, arc, 0, 0, func(rec walRecord) error {
			if delivered > 0 && rec.USN != last+1 {
				t.Fatalf("USN %d delivered after %d", rec.USN, last)
			}
			delivered, last = delivered+1, rec.USN
			return nil
		})
		if delivered > 0 && applied != last {
			t.Fatalf("ScanArchive reports USN %d, delivered up to %d", applied, last)
		}
		if verified && err == nil && len(segs) == 1 && segs[0].FirstUSN == 1 && delivered != uint64(segs[0].Records) {
			t.Fatalf("a verified segment claiming %d records scanned to %d", segs[0].Records, delivered)
		}
	})
}
