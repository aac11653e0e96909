package nsf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// codecVersion is the current note wire/storage format version.
const codecVersion = 1

// maxEncodedLen caps a single decoded collection length to defend against
// corrupt or hostile input.
const maxEncodedLen = 1 << 24

// AppendNote appends the canonical binary encoding of n to dst and returns
// the extended slice. The format is versioned and deterministic; it is used
// both by the storage engine and the wire protocol.
func AppendNote(dst []byte, n *Note) []byte {
	dst = append(dst, codecVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n.ID))
	dst = append(dst, n.OID.UNID[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, n.OID.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(n.OID.SeqTime))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(n.Class))
	dst = append(dst, byte(n.Flags))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(n.Created))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(n.Modified))
	dst = binary.AppendUvarint(dst, uint64(len(n.Items)))
	for i := range n.Items {
		dst = appendItem(dst, &n.Items[i])
	}
	return dst
}

// EncodeNote returns the canonical binary encoding of n.
func EncodeNote(n *Note) []byte {
	return AppendNote(make([]byte, 0, 64+32*len(n.Items)), n)
}

func appendItem(dst []byte, it *Item) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(it.Name)))
	dst = append(dst, it.Name...)
	dst = append(dst, byte(it.Flags))
	dst = binary.AppendUvarint(dst, uint64(it.Rev))
	return appendValue(dst, it.Value)
}

func appendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Type))
	switch v.Type {
	case TypeText:
		dst = binary.AppendUvarint(dst, uint64(len(v.Text)))
		for _, s := range v.Text {
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	case TypeNumber:
		dst = binary.AppendUvarint(dst, uint64(len(v.Numbers)))
		for _, n := range v.Numbers {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(n))
		}
	case TypeTime:
		dst = binary.AppendUvarint(dst, uint64(len(v.Times)))
		for _, t := range v.Times {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(t))
		}
	case TypeRaw:
		dst = binary.AppendUvarint(dst, uint64(len(v.Raw)))
		dst = append(dst, v.Raw...)
	default:
		// A zero-typed value encodes as type 0 with no payload.
	}
	return dst
}

// decoder is a bounds-checked cursor over an encoded note.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) remain() int { return len(d.buf) - d.off }

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.remain() < n {
		return nil, fmt.Errorf("nsf: truncated note encoding at offset %d (need %d bytes, have %d)", d.off, n, d.remain())
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) byte1() (byte, error) {
	b, err := d.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *decoder) u16() (uint16, error) {
	b, err := d.bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (d *decoder) u32() (uint32, error) {
	b, err := d.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("nsf: bad uvarint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) length() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxEncodedLen {
		return 0, fmt.Errorf("nsf: implausible length %d at offset %d", v, d.off)
	}
	return int(v), nil
}

// capFor bounds the capacity preallocated for count entries of at least
// size bytes each by what the rest of the buffer can hold, so a hostile
// count fails on truncation before it costs a large allocation.
func (d *decoder) capFor(count, size int) int { return min(count, d.remain()/size) }

// EncodeValue returns the canonical binary encoding of a single value (the
// same encoding items use inside EncodeNote).
func EncodeValue(v Value) []byte { return appendValue(nil, v) }

// AppendValue appends the canonical binary encoding of a single value to
// dst, letting callers reuse scratch buffers the way AppendNote does.
func AppendValue(dst []byte, v Value) []byte { return appendValue(dst, v) }

// DecodeValue decodes a value produced by EncodeValue.
func DecodeValue(buf []byte) (Value, error) {
	d := &decoder{buf: buf}
	v, err := decodeValue(d)
	if err != nil {
		return Value{}, err
	}
	if d.remain() != 0 {
		return Value{}, fmt.Errorf("nsf: %d trailing bytes after value", d.remain())
	}
	return v, nil
}

// DecodeNote decodes a note previously produced by EncodeNote. The returned
// note does not alias buf.
func DecodeNote(buf []byte) (*Note, error) { return DecodeNoteItems(buf, nil) }

// DecodeNoteItems decodes a note keeping only the items keep accepts, in
// stored order; a nil keep keeps them all. keep sees each item's name as a
// view into buf, valid only during the call. A rejected item is validated
// and skipped without being copied, so every projection rejects exactly the
// inputs DecodeNote rejects. The returned note does not alias buf.
func DecodeNoteItems(buf []byte, keep func(name []byte, flags ItemFlags) bool) (*Note, error) {
	d := &decoder{buf: buf}
	ver, err := d.byte1()
	if err != nil {
		return nil, err
	}
	if ver != codecVersion {
		return nil, fmt.Errorf("nsf: unsupported note encoding version %d", ver)
	}
	n := &Note{}
	id, err := d.u32()
	if err != nil {
		return nil, err
	}
	n.ID = NoteID(id)
	unid, err := d.bytes(16)
	if err != nil {
		return nil, err
	}
	copy(n.OID.UNID[:], unid)
	if n.OID.Seq, err = d.u32(); err != nil {
		return nil, err
	}
	st, err := d.u64()
	if err != nil {
		return nil, err
	}
	n.OID.SeqTime = Timestamp(st)
	cls, err := d.u16()
	if err != nil {
		return nil, err
	}
	n.Class = NoteClass(cls)
	fl, err := d.byte1()
	if err != nil {
		return nil, err
	}
	n.Flags = NoteFlags(fl)
	cr, err := d.u64()
	if err != nil {
		return nil, err
	}
	n.Created = Timestamp(cr)
	mo, err := d.u64()
	if err != nil {
		return nil, err
	}
	n.Modified = Timestamp(mo)
	count, err := d.length()
	if err != nil {
		return nil, err
	}
	// An item takes at least 4 bytes (name length, flags, rev, type).
	n.Items = make([]Item, 0, d.capFor(count, 4))
	for i := 0; i < count; i++ {
		if err := decodeItem(d, n, keep); err != nil {
			return nil, fmt.Errorf("nsf: item %d: %w", i, err)
		}
	}
	if d.remain() != 0 {
		return nil, fmt.Errorf("nsf: %d trailing bytes after note", d.remain())
	}
	return n, nil
}

// KeepItems returns a DecodeNoteItems filter keeping the items named in
// names (case-insensitively, as EqualNames compares) and every item
// carrying any of the bits in flags.
func KeepItems(names []string, flags ItemFlags) func(name []byte, flags ItemFlags) bool {
	want := make([][]byte, len(names))
	for i, n := range names {
		want[i] = []byte(n)
	}
	return func(name []byte, fl ItemFlags) bool {
		if fl&flags != 0 {
			return true
		}
		for _, w := range want {
			if bytes.EqualFold(name, w) {
				return true
			}
		}
		return false
	}
}

// decodeItem decodes one item, appending it to n.Items if keep (nil: all)
// accepts it and skipping its value otherwise.
func decodeItem(d *decoder, n *Note, keep func([]byte, ItemFlags) bool) error {
	nameLen, err := d.length()
	if err != nil {
		return err
	}
	name, err := d.bytes(nameLen)
	if err != nil {
		return err
	}
	fl, err := d.byte1()
	if err != nil {
		return err
	}
	rev, err := d.uvarint()
	if err != nil {
		return err
	}
	if keep != nil && !keep(name, ItemFlags(fl)) {
		return skipValue(d)
	}
	v, err := decodeValue(d)
	if err != nil {
		return err
	}
	n.Items = append(n.Items, Item{Name: string(name), Flags: ItemFlags(fl), Rev: uint32(rev), Value: v})
	return nil
}

// skipValue moves past one encoded value, failing exactly where
// decodeValue would: an unknown type, an implausible length, truncation.
func skipValue(d *decoder) error {
	t, err := d.byte1()
	if err != nil {
		return err
	}
	switch ItemType(t) {
	case TypeText:
		count, err := d.length()
		if err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			sl, err := d.length()
			if err != nil {
				return err
			}
			if _, err := d.bytes(sl); err != nil {
				return err
			}
		}
	case TypeNumber, TypeTime:
		count, err := d.length()
		if err != nil {
			return err
		}
		_, err = d.bytes(8 * count)
		return err
	case TypeRaw:
		size, err := d.length()
		if err != nil {
			return err
		}
		_, err = d.bytes(size)
		return err
	case 0:
	default:
		return fmt.Errorf("nsf: unknown item type %d", t)
	}
	return nil
}

func decodeValue(d *decoder) (Value, error) {
	var v Value
	t, err := d.byte1()
	if err != nil {
		return v, err
	}
	v.Type = ItemType(t)
	switch v.Type {
	case TypeText:
		count, err := d.length()
		if err != nil {
			return v, err
		}
		v.Text = make([]string, 0, d.capFor(count, 1))
		for i := 0; i < count; i++ {
			sl, err := d.length()
			if err != nil {
				return v, err
			}
			b, err := d.bytes(sl)
			if err != nil {
				return v, err
			}
			v.Text = append(v.Text, string(b))
		}
	case TypeNumber:
		count, err := d.length()
		if err != nil {
			return v, err
		}
		v.Numbers = make([]float64, 0, d.capFor(count, 8))
		for i := 0; i < count; i++ {
			bits, err := d.u64()
			if err != nil {
				return v, err
			}
			v.Numbers = append(v.Numbers, math.Float64frombits(bits))
		}
	case TypeTime:
		count, err := d.length()
		if err != nil {
			return v, err
		}
		v.Times = make([]Timestamp, 0, d.capFor(count, 8))
		for i := 0; i < count; i++ {
			tv, err := d.u64()
			if err != nil {
				return v, err
			}
			v.Times = append(v.Times, Timestamp(tv))
		}
	case TypeRaw:
		size, err := d.length()
		if err != nil {
			return v, err
		}
		b, err := d.bytes(size)
		if err != nil {
			return v, err
		}
		v.Raw = append([]byte(nil), b...)
	case 0:
		// Zero value: nothing follows.
	default:
		return v, fmt.Errorf("nsf: unknown item type %d", t)
	}
	return v, nil
}
