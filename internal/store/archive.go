package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/vfs"
)

// Log archiving: instead of discarding the sealed WAL at every checkpoint,
// the store rotates it into the archive directory as an immutable segment
// file. Segments preserve the complete, USN-stamped operation history, so a
// full backup image plus the archive can roll a database forward to any
// point in time.
//
// Segment file layout (seg-NNNNNNNN.walseg):
//
//	magic     "NSFWSEG1" (8 bytes)
//	seq       uint32     segment sequence number
//	firstUSN  uint64     USN of the first record
//	lastUSN   uint64     USN of the last record
//	records   uint32     record count
//	headerCRC uint32     castagnoli over bytes 8..32
//	frames               WAL record frames, identical to the live WAL format
//
// Segments reach the archive through Publish, so a crash can never leave a
// half-visible segment.
// After a crash between sealing and the WAL reset the same records can be
// sealed twice; readers tolerate the overlap because replay skips records
// at or below the store's current USN.

const (
	segMagic      = "NSFWSEG1"
	segHeaderSize = 8 + 4 + 8 + 8 + 4 + 4
)

// ErrCorruptSegment reports an archived segment whose header or frame
// stream failed its CRC; replay stops at the last intact record before it.
var ErrCorruptSegment = errors.New("store: corrupt archive segment")

// ErrArchiveGap reports a hole in the archived USN sequence: a record
// needed for point-in-time replay is missing (a segment was lost).
var ErrArchiveGap = errors.New("store: archive is missing log records")

// SegmentInfo describes one archived WAL segment.
type SegmentInfo struct {
	Path     string
	Seq      uint32
	FirstUSN uint64
	LastUSN  uint64
	Records  uint32
}

func segName(seq uint32) string { return fmt.Sprintf("seg-%08d.walseg", seq) }

// initArchive creates the archive directory and positions the segment
// counter after the highest existing segment.
func (s *Store) initArchive() error {
	if err := s.opts.FS.MkdirAll(s.opts.ArchiveDir, 0o755); err != nil {
		return fmt.Errorf("store: archive dir: %w", err)
	}
	segs, err := ListSegments(s.opts.FS, s.opts.ArchiveDir)
	if err != nil {
		return err
	}
	s.nextSegSeq = 1
	if len(segs) > 0 {
		s.nextSegSeq = segs[len(segs)-1].Seq + 1
	}
	return nil
}

// sealWALLocked rotates the current WAL contents into a new archive
// segment. No-op when archiving is off or the WAL is empty. Call with s.mu
// held, before the WAL is reset.
func (s *Store) sealWALLocked() error {
	if s.opts.ArchiveDir == "" || s.wal.size.Load() == 0 {
		return nil
	}
	raw, err := s.wal.readAll()
	if err != nil {
		return err
	}
	var first, last uint64
	records := uint32(0)
	consumed, _, err := scanFrames(bytes.NewReader(raw), int64(len(raw)), func(rec walRecord) error {
		if rec.Kind == walPages {
			return nil // not history: see the copy below
		}
		if records == 0 {
			first = rec.USN
		}
		last = rec.USN
		records++
		return nil
	})
	if err != nil {
		return err
	}
	if records == 0 {
		return nil
	}
	seq := s.nextSegSeq
	hdr := make([]byte, segHeaderSize)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint32(hdr[8:], seq)
	binary.LittleEndian.PutUint64(hdr[12:], first)
	binary.LittleEndian.PutUint64(hdr[20:], last)
	binary.LittleEndian.PutUint32(hdr[28:], records)
	binary.LittleEndian.PutUint32(hdr[32:], crc32.Checksum(hdr[8:32], crcTable))

	err = Publish(s.opts.FS, filepath.Join(s.opts.ArchiveDir, segName(seq)), func(f vfs.File) error {
		w := io.NewOffsetWriter(f, 0)
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		// Copy the frames verbatim, leaving out any walPages frame (a
		// failed checkpoint's, kept in the log for recovery).
		start := int64(0)
		for off := int64(0); off < consumed; {
			next := off + 8 + int64(binary.LittleEndian.Uint32(raw[off:]))
			if raw[off+8] == walPages {
				if _, err := w.Write(raw[start:off]); err != nil {
					return err
				}
				start = next
			}
			off = next
		}
		_, err := w.Write(raw[start:consumed])
		return err
	})
	if err != nil {
		return fmt.Errorf("store: write segment: %w", err)
	}
	s.nextSegSeq = seq + 1
	return nil
}

// readSegmentHeader parses and validates a segment header.
func readSegmentHeader(path string, r io.Reader) (SegmentInfo, error) {
	hdr := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return SegmentInfo{}, fmt.Errorf("%w: %s: short header", ErrCorruptSegment, path)
	}
	if string(hdr[:8]) != segMagic {
		return SegmentInfo{}, fmt.Errorf("%w: %s: bad magic", ErrCorruptSegment, path)
	}
	if crc32.Checksum(hdr[8:32], crcTable) != binary.LittleEndian.Uint32(hdr[32:]) {
		return SegmentInfo{}, fmt.Errorf("%w: %s: header CRC mismatch", ErrCorruptSegment, path)
	}
	return SegmentInfo{
		Path:     path,
		Seq:      binary.LittleEndian.Uint32(hdr[8:]),
		FirstUSN: binary.LittleEndian.Uint64(hdr[12:]),
		LastUSN:  binary.LittleEndian.Uint64(hdr[20:]),
		Records:  binary.LittleEndian.Uint32(hdr[28:]),
	}, nil
}

// ListSegments returns the archive's segments in sequence order, skipping
// temp files. Segments with unreadable headers are reported as errors.
func ListSegments(fsys vfs.FS, dir string) ([]SegmentInfo, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: read archive dir: %w", err)
	}
	var segs []SegmentInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".walseg") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
		if err != nil {
			return nil, err
		}
		info, herr := readSegmentHeader(path, io.NewSectionReader(f, 0, segHeaderSize))
		f.Close()
		if herr != nil {
			return nil, herr
		}
		segs = append(segs, info)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	return segs, nil
}

// VerifySegment checks one archived segment end to end: header CRC, every
// frame CRC, and agreement between the header's record count / USN range
// and the frames actually present. It returns the number of intact records
// read (even on error, so callers can report how far verification got).
func VerifySegment(fsys vfs.FS, seg SegmentInfo) (int, error) {
	f, size, err := openSegment(fsys, seg.Path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	hdr, err := readSegmentHeader(seg.Path, io.NewSectionReader(f, 0, segHeaderSize))
	if err != nil {
		return 0, err
	}
	var first, last uint64
	records := 0
	frameBytes := size - segHeaderSize
	_, clean, err := scanFrames(io.NewSectionReader(f, segHeaderSize, frameBytes), frameBytes, func(rec walRecord) error {
		if records == 0 {
			first = rec.USN
		}
		last = rec.USN
		records++
		return nil
	})
	if err != nil {
		return records, err
	}
	if !clean {
		return records, fmt.Errorf("%w: %s: torn or corrupt frame after %d records", ErrCorruptSegment, seg.Path, records)
	}
	if uint32(records) != hdr.Records || first != hdr.FirstUSN || last != hdr.LastUSN {
		return records, fmt.Errorf("%w: %s: header claims %d records USN %d..%d, frames hold %d records USN %d..%d",
			ErrCorruptSegment, seg.Path, hdr.Records, hdr.FirstUSN, hdr.LastUSN, records, first, last)
	}
	return records, nil
}

// openSegment opens an archived segment for reading and returns its size.
func openSegment(fsys vfs.FS, path string) (vfs.File, int64, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, 0, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, size, nil
}

// ScanArchive calls fn for every intact record in the archive whose USN
// lies in (afterUSN, toUSN], in USN order. Duplicate records (from
// crash-reseal overlap) are delivered once. A corrupt or torn frame stops
// the scan at the last intact record and returns ErrCorruptSegment wrapped
// with the segment path; a missing USN inside the requested range returns
// ErrArchiveGap. It returns the highest USN delivered.
func ScanArchive(fsys vfs.FS, dir string, afterUSN, toUSN uint64, fn func(rec walRecord) error) (uint64, error) {
	if toUSN == 0 {
		toUSN = ^uint64(0)
	}
	segs, err := ListSegments(fsys, dir)
	if err != nil {
		return 0, err
	}
	applied := afterUSN
	done := false
	for _, seg := range segs {
		if done || seg.LastUSN <= applied {
			continue
		}
		if seg.FirstUSN > applied+1 {
			return applied, fmt.Errorf("%w: need USN %d, next segment %s starts at %d",
				ErrArchiveGap, applied+1, seg.Path, seg.FirstUSN)
		}
		f, size, err := openSegment(fsys, seg.Path)
		if err != nil {
			return applied, err
		}
		if _, err := readSegmentHeader(seg.Path, io.NewSectionReader(f, 0, segHeaderSize)); err != nil {
			f.Close()
			return applied, err
		}
		frameBytes := size - segHeaderSize
		_, clean, err := scanFrames(io.NewSectionReader(f, segHeaderSize, frameBytes), frameBytes, func(rec walRecord) error {
			if rec.USN <= applied || rec.USN > toUSN {
				if rec.USN > toUSN {
					done = true
				}
				return nil
			}
			if rec.USN != applied+1 {
				return fmt.Errorf("%w: need USN %d, segment %s jumps to %d",
					ErrArchiveGap, applied+1, seg.Path, rec.USN)
			}
			if err := fn(rec); err != nil {
				return err
			}
			applied = rec.USN
			return nil
		})
		f.Close()
		if err != nil {
			return applied, err
		}
		if !clean {
			return applied, fmt.Errorf("%w: %s: torn or corrupt frame after USN %d", ErrCorruptSegment, seg.Path, applied)
		}
	}
	return applied, nil
}

// ApplyArchive replays archived log records with USNs in (LastUSN, toUSN]
// into the store — the roll-forward half of point-in-time recovery
// (toUSN 0 means everything available). Replayed operations are re-logged
// in the store's own WAL with their original USNs, so a crash during
// recovery recovers. It returns the number of records applied.
func (s *Store) ApplyArchive(dir string, toUSN uint64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errors.New("store: closed")
	}
	// Settle any forming group-commit batch before appending to the WAL
	// directly: replayed records must land after every committed one.
	if err := s.gc.drain(); err != nil {
		return 0, err
	}
	applied := 0
	_, err := ScanArchive(s.opts.FS, dir, s.usn, toUSN, func(rec walRecord) error {
		if err := s.wal.append(rec.Kind, rec.USN, rec.Payload, false); err != nil {
			return err
		}
		if err := s.replayRecord(rec); err != nil {
			return err
		}
		applied++
		return nil
	})
	if err != nil {
		return applied, err
	}
	return applied, s.checkpointLocked()
}
