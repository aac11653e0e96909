package wire

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/store"
)

// Enc builds a message payload. Encoders come from an internal pool:
// callers that fully own an Enc (it was written to the wire and will not be
// touched again) should Release it so its grown buffer is reused instead of
// reallocated per message. Never releasing is safe — the GC collects the
// encoder — it just forfeits the reuse.
type Enc struct{ buf []byte }

// encPool recycles encoders (and, through them, their grown buffers).
var encPool = sync.Pool{New: func() any { return new(Enc) }}

// maxPooledEnc caps the buffer size worth pooling, so one huge message
// cannot pin a huge buffer in the pool.
const maxPooledEnc = 1 << 20

// NewEnc starts a request payload with the given op.
func NewEnc(op Op) *Enc {
	e := encPool.Get().(*Enc)
	e.buf = append(e.buf[:0], byte(op))
	return e
}

// NewResp starts a response payload for op with a status byte.
func NewResp(op Op, status byte) *Enc {
	e := encPool.Get().(*Enc)
	e.buf = append(e.buf[:0], byte(op)|respBit, status)
	return e
}

// Release returns the encoder to the pool. The caller must not use (or
// re-release) it afterwards.
func (e *Enc) Release() {
	if e == nil || cap(e.buf) > maxPooledEnc {
		return
	}
	encPool.Put(e)
}

// Bytes returns the accumulated payload.
func (e *Enc) Bytes() []byte { return e.buf }

// op returns the op byte a request payload was started with.
func (e *Enc) op() Op { return Op(e.buf[0]) }

// setHandle overwrites the database handle of a request started with
// RemoteDB.req — the u32 right after the op byte — so one encoded request
// can follow its handle across redials and mate switches.
func (e *Enc) setHandle(h uint32) { binary.LittleEndian.PutUint32(e.buf[1:5], h) }

// clone returns a pooled copy of the payload.
func (e *Enc) clone() *Enc {
	c := encPool.Get().(*Enc)
	c.buf = append(c.buf[:0], e.buf...)
	return c
}

// U8 appends a byte.
func (e *Enc) U8(v byte) *Enc { e.buf = append(e.buf, v); return e }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) *Enc {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	return e
}

// SetU32 overwrites the little-endian uint32 at offset off, a field
// appended before its value was known.
func (e *Enc) SetU32(off int, v uint32) { binary.LittleEndian.PutUint32(e.buf[off:off+4], v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) *Enc {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	return e
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) *Enc {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Blob appends a length-prefixed byte slice.
func (e *Enc) Blob(b []byte) *Enc {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// Columns appends a scan or search request's column names: a count, then
// each name.
func (e *Enc) Columns(names []string) *Enc {
	e.U32(uint32(len(names)))
	for _, n := range names {
		e.Str(n)
	}
	return e
}

// UNID appends a 16-byte UNID.
func (e *Enc) UNID(u nsf.UNID) *Enc { e.buf = append(e.buf, u[:]...); return e }

// Raw appends bytes without a length prefix (fixed-size fields).
func (e *Enc) Raw(b []byte) *Enc { e.buf = append(e.buf, b...); return e }

// noteEncPool recycles the scratch buffer notes are encoded into before
// being length-prefixed onto the payload.
var noteEncPool = sync.Pool{New: func() any { return new([]byte) }}

// Note appends an encoded note as a blob. The encoding runs through a
// pooled scratch buffer, so serializing notes allocates nothing in steady
// state.
func (e *Enc) Note(n *nsf.Note) *Enc {
	bp := noteEncPool.Get().(*[]byte)
	enc := nsf.AppendNote((*bp)[:0], n)
	e.Blob(enc)
	if cap(enc) <= maxPooledEnc {
		*bp = enc
	}
	noteEncPool.Put(bp)
	return e
}

// Value appends a typed item value as a blob, in the canonical nsf value
// encoding. Like Note, the encoding runs through a pooled scratch buffer.
func (e *Enc) Value(v nsf.Value) *Enc {
	bp := noteEncPool.Get().(*[]byte)
	enc := nsf.AppendValue((*bp)[:0], v)
	e.Blob(enc)
	if cap(enc) <= maxPooledEnc {
		*bp = enc
	}
	noteEncPool.Put(bp)
	return e
}

// Summary appends a replication summary. Deleted and SelStub travel as a
// flags byte (bit 0 deleted, bit 1 selection stub).
func (e *Enc) Summary(s repl.Summary) *Enc {
	e.UNID(s.UNID).U32(s.Seq).U64(uint64(s.SeqTime)).U32(uint32(s.Class))
	var flags uint8
	if s.Deleted {
		flags |= 1
	}
	if s.SelStub {
		flags |= 2
	}
	return e.U8(flags)
}

// Cursor appends a change cursor: incarnation, then USN.
func (e *Enc) Cursor(c store.Cursor) *Enc { return e.U64(c.Incarnation).U64(c.USN) }

// ApplyStats appends replication apply statistics.
func (e *Enc) ApplyStats(s repl.ApplyStats) *Enc {
	return e.U32(uint32(s.Added)).U32(uint32(s.Updated)).U32(uint32(s.Deleted)).
		U32(uint32(s.Conflicts)).U32(uint32(s.Merged)).U32(uint32(s.Skipped))
}

// Dec parses a message payload.
type Dec struct {
	buf []byte
	off int
	err error
	// src is a string copy of buf, made by the first NoteInto.
	src string
}

// NewDec wraps a payload (after the op/status prefix has been consumed by
// the caller).
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// Err returns the first decoding error.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.fail("truncated message at offset %d", d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads a byte.
func (d *Dec) U8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.Blob()) }

// Blob reads a length-prefixed byte slice (aliasing the payload).
func (d *Dec) Blob() []byte {
	if d.err != nil {
		return nil
	}
	n, sz := binary.Uvarint(d.buf[d.off:])
	if sz <= 0 || n > MaxFrame {
		d.fail("bad length at offset %d", d.off)
		return nil
	}
	d.off += sz
	return d.take(int(n))
}

// Columns reads the column names Enc.Columns appends, sized by Cap: an
// empty list is empty, not nil.
func (d *Dec) Columns() []string {
	n := d.U32()
	names := make([]string, 0, d.Cap(n, 1))
	for i := uint32(0); i < n && d.err == nil; i++ {
		names = append(names, d.Str())
	}
	return names
}

// UNID reads a 16-byte UNID.
func (d *Dec) UNID() nsf.UNID {
	var u nsf.UNID
	copy(u[:], d.take(16))
	return u
}

// Raw reads n bytes without a length prefix.
func (d *Dec) Raw(n int) []byte { return d.take(n) }

// Note reads an encoded note.
func (d *Dec) Note() *nsf.Note {
	b := d.Blob()
	if d.err != nil {
		return nil
	}
	n, err := nsf.DecodeNote(b)
	if err != nil {
		d.fail("bad note: %v", err)
		return nil
	}
	return n
}

// NoteInto reads an encoded note into n with nsf.DecodeNoteIntoSrc: its
// value arrays are cut from a, and its item names and text entries are
// substrings of one string copy of the whole payload, made by the first
// call, so a payload carrying many notes costs that one copy. The note is
// valid until a is Reset; a string taken from it may be kept, and keeps
// the payload's copy alive.
func (d *Dec) NoteInto(n *nsf.Note, a *nsf.Arena) error {
	b := d.Blob()
	if d.err == nil {
		if d.src == "" {
			d.src = string(d.buf)
		}
		at := d.off - len(b)
		if err := nsf.DecodeNoteIntoSrc(n, a, b, d.src[at:d.off]); err != nil {
			d.fail("bad note: %v", err)
		}
	}
	return d.err
}

// ownedNote reads an encoded note into n with nsf.DecodeNoteOwned: a
// constant number of allocations per note, its names and text entries
// substrings of one copy of the blob, which a string kept from the note
// keeps alive. Replies decode this way: the client hands each note to its
// caller, who may keep it.
func (d *Dec) ownedNote(n *nsf.Note) error {
	b := d.Blob()
	if d.err == nil {
		if err := nsf.DecodeNoteOwned(n, b); err != nil {
			d.fail("bad note: %v", err)
		}
	}
	return d.err
}

// Value reads a typed item value appended by Enc.Value.
func (d *Dec) Value() nsf.Value {
	b := d.Blob()
	if d.err != nil {
		return nsf.Value{}
	}
	v, err := nsf.DecodeValue(b)
	if err != nil {
		d.fail("bad value: %v", err)
		return nsf.Value{}
	}
	return v
}

// Cap clamps an untrusted element count to what the remaining payload
// bytes could possibly encode, given a minimum encoded size per element.
// Preallocations sized by a peer-supplied count MUST go through this: a
// single corrupt 4-byte count would otherwise demand gigabytes before the
// first element fails to parse.
func (d *Dec) Cap(count uint32, minElem int) int {
	if minElem < 1 {
		minElem = 1
	}
	max := d.Remaining() / minElem
	if int(count) > max || int(count) < 0 {
		return max
	}
	return int(count)
}

// Summary reads a replication summary.
func (d *Dec) Summary() repl.Summary {
	s := repl.Summary{
		UNID:    d.UNID(),
		Seq:     d.U32(),
		SeqTime: nsf.Timestamp(d.U64()),
		Class:   nsf.NoteClass(d.U32()),
	}
	flags := d.U8()
	s.Deleted = flags&1 != 0
	s.SelStub = flags&2 != 0
	return s
}

// Cursor reads a change cursor.
func (d *Dec) Cursor() store.Cursor { return store.Cursor{Incarnation: d.U64(), USN: d.U64()} }

// ApplyStats reads replication apply statistics.
func (d *Dec) ApplyStats() repl.ApplyStats {
	return repl.ApplyStats{
		Added:     int(d.U32()),
		Updated:   int(d.U32()),
		Deleted:   int(d.U32()),
		Conflicts: int(d.U32()),
		Merged:    int(d.U32()),
		Skipped:   int(d.U32()),
	}
}

// Remaining reports unread bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }
