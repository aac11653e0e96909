package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/vfs"
)

// WAL record kinds.
const (
	walPut    = 1 // payload: encoded note
	walDelete = 2 // payload: 16-byte UNID
	// walBatch wraps several logical records committed as one group: its
	// payload is a sequence of sub-records (kind, usn, length, payload),
	// and the frame-level CRC covers them all. A torn or corrupt tail
	// therefore drops the whole batch, never a prefix of it — which is what
	// makes group commit safe to acknowledge per batch. scanFrames flattens
	// batches, so replay, sealing, and archive scans only ever see the
	// logical records with their dense USNs.
	walBatch = 3
	// walPages carries page images: the header page, then every page a
	// checkpoint is about to overwrite in place, each as a 4-byte page ID
	// and PageSize bytes. It is logged and synced before the in-place
	// writes and lives only until the checkpoint's WAL reset, so a crash
	// amid the writes finds it as the log's last page-image frame and
	// recovery rewrites the pages from it (see Store.recover). Segments
	// never carry it: the checkpoint seals the WAL before logging it, and
	// a seal leaves out the frame a failed checkpoint left behind.
	walPages = 4
)

// pageImageSize is one page image in a walPages payload.
const pageImageSize = 4 + PageSize

// walRecord is one logical operation in the log. Every record carries the
// database-wide update sequence number (USN) assigned at commit, so
// archived log segments can be replayed to an exact point in time.
type walRecord struct {
	Kind    byte
	USN     uint64
	Payload []byte
}

// wal is an append-only log of note-level operations since the last
// checkpoint. Each record is framed as:
//
//	length  uint32  (kind + usn + payload)
//	crc32   uint32  (castagnoli, over kind + usn + payload)
//	kind    byte
//	usn     uint64  (little-endian)
//	payload bytes
//
// Replay stops at the first torn or corrupt record, which by write ordering
// can only be the tail.
type wal struct {
	f vfs.File
	// size is the committed tail offset. It is atomic because a group-commit
	// leader appends outside the store latch while latch-holding readers
	// (Stats, backup) observe it; writes are still serialized (one leader at
	// a time, and archive roll-forward appends only after draining the
	// group).
	size atomic.Int64
	buf  []byte
}

func openWAL(fsys vfs.FS, path string) (*wal, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat wal: %w", err)
	}
	w := &wal{f: f}
	w.size.Store(size)
	return w, nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameOverhead is the framing cost per record: length + crc + kind + usn.
const frameOverhead = 8 + 1 + 8

// appendFrame encodes one record into buf (reused across calls).
func appendFrame(buf []byte, kind byte, usn uint64, payload []byte) []byte {
	var hdr [9]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint64(hdr[1:], usn)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(9+len(payload)))
	crc := crc32.Checksum(hdr[:], crcTable)
	crc = crc32.Update(crc, crcTable, payload)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	return buf
}

// append writes one record at the current tail. If sync is true the log is
// fsynced before returning, making the operation durable.
func (w *wal) append(kind byte, usn uint64, payload []byte, sync bool) error {
	need := frameOverhead + len(payload)
	if cap(w.buf) < need {
		w.buf = make([]byte, 0, need*2)
	}
	return w.writeFrame(appendFrame(w.buf[:0], kind, usn, payload), sync)
}

// batchSubHeader is the per-record header inside a walBatch payload:
// kind (1) + usn (8) + payload length (4).
const batchSubHeader = 1 + 8 + 4

// appendSubRecord encodes one logical record into a forming batch payload.
func appendSubRecord(buf []byte, kind byte, usn uint64, payload []byte) []byte {
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, usn)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// appendBatch writes count pre-encoded sub-records as one walBatch frame
// whose CRC covers the whole group: recovery keeps the batch entirely or
// drops it entirely. A single-record batch is written as a plain frame, so
// a lone writer's log carries no batch header.
func (w *wal) appendBatch(sub []byte, count int, lastUSN uint64, sync bool) error {
	if count == 1 {
		kind := sub[0]
		usn := binary.LittleEndian.Uint64(sub[1:9])
		return w.append(kind, usn, sub[batchSubHeader:], sync)
	}
	need := frameOverhead + len(sub)
	if cap(w.buf) < need {
		w.buf = make([]byte, 0, need*2)
	}
	return w.writeFrame(appendFrame(w.buf[:0], walBatch, lastUSN, sub), sync)
}

// writeFrame appends one already-framed record (buf reuses w.buf's storage).
func (w *wal) writeFrame(buf []byte, sync bool) error {
	if _, err := w.f.WriteAt(buf, w.size.Load()); err != nil {
		return fmt.Errorf("store: append wal: %w", err)
	}
	w.size.Add(int64(len(buf)))
	w.buf = buf
	if sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: sync wal: %w", err)
		}
	}
	return nil
}

// appendImages logs pg's page images (see pager.images) as one walPages
// frame stamped with usn and syncs the log. The images stream through a
// small buffer straight into the file; the frame header goes last, so the
// frame is intact only once every image has been written.
func (w *wal) appendImages(usn uint64, pg *pager) error {
	start := w.size.Load()
	bw := bufio.NewWriterSize(io.NewOffsetWriter(w.f, start+8), 64<<10)
	var hdr [9]byte
	hdr[0] = walPages
	binary.LittleEndian.PutUint64(hdr[1:], usn)
	crc := crc32.Checksum(hdr[:], crcTable)
	bw.Write(hdr[:])
	length := int64(len(hdr))
	err := pg.images(func(id PageID, data []byte) error {
		var idb [4]byte
		binary.LittleEndian.PutUint32(idb[:], uint32(id))
		crc = crc32.Update(crc32.Update(crc, crcTable, idb[:]), crcTable, data)
		bw.Write(idb[:])
		_, err := bw.Write(data)
		length += pageImageSize
		return err
	})
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		var frame [8]byte
		binary.LittleEndian.PutUint32(frame[:], uint32(length))
		binary.LittleEndian.PutUint32(frame[4:], crc)
		_, err = w.f.WriteAt(frame[:], start)
	}
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("store: log page images: %w", err)
	}
	w.size.Store(start + 8 + length)
	return nil
}

// validImages reports whether a walPages payload is whole page images with
// the header first and every page ID inside the page count that header
// records. Anything else is corruption, and recovery must not write it: an
// unchecked ID could address a page terabytes past the end of the file.
func validImages(p []byte) bool {
	if len(p) == 0 || len(p)%pageImageSize != 0 || binary.LittleEndian.Uint32(p) != 0 ||
		string(p[4:4+len(headerMagic)]) != headerMagic {
		return false
	}
	count := binary.LittleEndian.Uint32(p[4+hdrOffCount:])
	for q := p[pageImageSize:]; len(q) > 0; q = q[pageImageSize:] {
		if binary.LittleEndian.Uint32(q) >= count {
			return false
		}
	}
	return true
}

// scanFrames reads CRC-framed records from r (at most size bytes) and calls
// fn for every intact one. It returns the byte count consumed by intact
// frames and whether the stream ended cleanly at a frame boundary; a torn or
// corrupt frame stops the scan with clean=false but no error. Errors from fn
// abort the scan. Shared by WAL replay and the archived-segment reader, so
// both stop at the first bad frame instead of resurrecting or panicking.
func scanFrames(r io.Reader, size int64, fn func(rec walRecord) error) (consumed int64, clean bool, err error) {
	var hdr [8]byte
	offset := int64(0)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return offset, true, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return offset, false, nil
			}
			return offset, false, fmt.Errorf("store: read log header: %w", err)
		}
		length := binary.LittleEndian.Uint32(hdr[:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:])
		if length < 9 || int64(length) > size-offset-8 {
			return offset, false, nil // torn tail
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(r, body); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return offset, false, nil
			}
			return offset, false, fmt.Errorf("store: read log body: %w", err)
		}
		if crc32.Checksum(body, crcTable) != wantCRC {
			return offset, false, nil
		}
		rec := walRecord{
			Kind:    body[0],
			USN:     binary.LittleEndian.Uint64(body[1:9]),
			Payload: body[9:],
		}
		if rec.Kind == walPages && !validImages(rec.Payload) {
			return offset, false, nil
		}
		if rec.Kind == walBatch {
			// Flatten the batch so every consumer (replay, seal, archive
			// scan) sees ordinary records with dense USNs. The frame CRC
			// already vouched for the payload; a malformed interior means
			// the writer was broken, so treat it like corruption at the
			// batch boundary — all-or-nothing, never a prefix. That demands
			// validating the whole batch BEFORE delivering any record of it.
			sub := rec.Payload
			for len(sub) > 0 {
				if len(sub) < batchSubHeader || (sub[0] != walPut && sub[0] != walDelete) {
					return offset, false, nil
				}
				plen := int(binary.LittleEndian.Uint32(sub[9:13]))
				if plen > len(sub)-batchSubHeader {
					return offset, false, nil
				}
				sub = sub[batchSubHeader+plen:]
			}
			for sub = rec.Payload; len(sub) > 0; {
				plen := int(binary.LittleEndian.Uint32(sub[9:13]))
				r := walRecord{
					Kind:    sub[0],
					USN:     binary.LittleEndian.Uint64(sub[1:9]),
					Payload: sub[batchSubHeader : batchSubHeader+plen],
				}
				if err := fn(r); err != nil {
					return offset, false, err
				}
				sub = sub[batchSubHeader+plen:]
			}
		} else if err := fn(rec); err != nil {
			return offset, false, err
		}
		offset += 8 + int64(length)
	}
}

// lastImages returns the payload and USN of the log's last intact walPages
// frame (nil when there is none).
func (w *wal) lastImages() (images []byte, usn uint64, err error) {
	size := w.size.Load()
	_, _, err = scanFrames(io.NewSectionReader(w.f, 0, size), size, func(rec walRecord) error {
		if rec.Kind == walPages {
			images, usn = rec.Payload, rec.USN
		}
		return nil
	})
	return images, usn, err
}

// replay invokes fn for every intact record from the start of the log. A
// torn tail (truncated or CRC-mismatched final record) ends replay without
// error; any earlier corruption is also treated as a torn tail because
// records are written strictly in order.
func (w *wal) replay(fn func(rec walRecord) error) error {
	size := w.size.Load()
	r := io.NewSectionReader(w.f, 0, size)
	offset, _, err := scanFrames(r, size, fn)
	if err != nil {
		return err
	}
	// Forget any torn tail so subsequent appends start from intact state.
	if offset != size {
		if err := w.f.Truncate(offset); err != nil {
			return fmt.Errorf("store: truncate torn wal tail: %w", err)
		}
		w.size.Store(offset)
	}
	return nil
}

// readAll returns a copy of the current log contents (the tail since the
// last checkpoint) — the piece a hot backup captures alongside the page
// file snapshot.
func (w *wal) readAll() ([]byte, error) {
	buf := make([]byte, w.size.Load())
	if _, err := w.f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("store: read wal: %w", err)
	}
	return buf, nil
}

// reset truncates the log after a checkpoint has made its contents redundant.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: sync wal: %w", err)
	}
	w.size.Store(0)
	return nil
}

func (w *wal) close() error { return w.f.Close() }
