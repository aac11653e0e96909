package nsf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
	return (*Arena)(nil).DecodeValue(buf, "")
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
	n := &Note{}
	if err := DecodeNoteInto(n, nil, buf, keep); err != nil {
		return nil, err
	}
	return n, nil
}

// DecodeNoteInto is DecodeNoteItems into a caller's note: n's header is
// overwritten and its Items slice reused. With a nil arena every value gets
// arrays of its own, as DecodeNoteItems gives; with an arena the values and
// item names are cut from it, so a note decoded again and again into the
// same n after a.Reset allocates nothing once both have grown, save a
// string per text entry. Such a note is valid until the arena is Reset.
func DecodeNoteInto(n *Note, a *Arena, buf []byte, keep func(name []byte, flags ItemFlags) bool) error {
	return decodeInto(n, a, buf, "", keep)
}

// DecodeNoteOwned decodes buf into n as DecodeNote would, with a constant
// number of allocations whatever the note holds: n's header is overwritten
// and it gets an Items slice of its own. A first walk validates buf and
// counts what its values hold; then item names and text entries are
// substrings of one string copy of buf, and each kind of value array
// (text, numbers, times, raw bytes) is cut from one array sized by that
// count, with full slice expressions. Nothing aliases buf or another note,
// but a retained name or text entry keeps the whole string alive, as a bulk
// page's values keep their page's. It rejects exactly what DecodeNote
// rejects.
func DecodeNoteOwned(n *Note, buf []byte) error {
	var it ItemIter
	if err := it.Reset(buf, nil); err != nil {
		return err
	}
	var text, nums, times, raw int
	for it.Next() {
		// The walk validated the value, so its type byte and count are there.
		v := it.item.Value
		count, _ := binary.Uvarint(v[1:])
		switch ItemType(v[0]) {
		case TypeText:
			text += int(count)
		case TypeNumber:
			nums += int(count)
		case TypeTime:
			times += int(count)
		case TypeRaw:
			raw += int(count)
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	a := Arena{
		text:  make([]string, 0, text),
		nums:  make([]float64, 0, nums),
		times: make([]Timestamp, 0, times),
		raw:   make([]byte, 0, raw),
	}
	n.Items = make([]Item, 0, it.count)
	return decodeInto(n, &a, buf, string(buf), nil)
}

// decodeInto is DecodeNoteInto with src, when non-empty, holding the same
// bytes as buf: item names and text entries are then substrings of src
// rather than copies.
func decodeInto(n *Note, a *Arena, buf []byte, src string, keep func(name []byte, flags ItemFlags) bool) error {
	var it ItemIter
	if err := it.Reset(buf, n); err != nil {
		return err
	}
	items := n.Items[:0]
	if items == nil {
		// An item takes at least 4 bytes (name length, flags, rev, type).
		items = make([]Item, 0, it.d.capFor(it.count, 4))
	}
	for it.head() {
		ri := &it.item
		if keep != nil && !keep(ri.Name, ri.Flags) {
			if !it.check(skipValue(&it.d)) {
				break
			}
			continue
		}
		v, err := decodeValue(&it.d, a, src)
		if !it.check(err) {
			break
		}
		var name string
		if src != "" {
			name = src[it.nameAt : it.nameAt+len(ri.Name)]
		} else {
			name = a.name(ri.Name)
		}
		items = append(items, Item{Name: name, Flags: ri.Flags, Rev: ri.Rev, Value: v})
	}
	n.Items = items
	return it.Err()
}

// noteHeaderLen is the size of an encoded note's fixed header: version,
// NoteID, UNID, Seq, SeqTime, class, flags, Created and Modified.
const noteHeaderLen = 1 + 4 + 16 + 4 + 8 + 2 + 1 + 8 + 8

// RawItem is one item of an encoded note as the encoding holds it. Name
// and Value alias the note's buffer; Value is the item's value in the
// EncodeValue form, type byte first, so DecodeValue(Value) decodes it and
// copying Value copies the value's encoding byte for byte.
type RawItem struct {
	Name  []byte
	Flags ItemFlags
	Rev   uint32
	Value []byte
}

// ItemIter walks the items of an encoded note without decoding or copying
// them: the one parser every note decode goes through. It validates as it
// walks, skipping each value where decodeValue would fail (DecodeNoteInto
// decodes the values it keeps instead of skipping them), so a note it
// walks to the end without an Err is exactly a note DecodeNote accepts
// (the trailing-bytes check included). It allocates nothing.
//
//	var it nsf.ItemIter
//	if err := it.Reset(buf, nil); err != nil { ... }
//	for it.Next() { use(it.Item()) }
//	if err := it.Err(); err != nil { ... }
type ItemIter struct {
	d      decoder
	count  int // items the note declares
	i      int // items begun
	start  int // offset of the current item's encoding
	nameAt int // offset of the current item's name
	item   RawItem
	err    error
}

// Reset starts the iterator on buf, checking the note header and decoding
// it into n (every field but Items) when n is non-nil.
func (it *ItemIter) Reset(buf []byte, n *Note) error {
	*it = ItemIter{d: decoder{buf: buf}}
	var hdr Note
	if n == nil {
		n = &hdr
	}
	if err := decodeHeader(&it.d, n); err != nil {
		it.err = err
		return err
	}
	count, err := it.d.length()
	if err != nil {
		it.err = err
		return err
	}
	it.count = count
	return nil
}

// Next moves to the next item and reports whether there is one. It
// returns false after the last item or at the first malformed byte; Err
// tells the two apart.
func (it *ItemIter) Next() bool {
	if !it.head() {
		return false
	}
	at := it.d.off
	if !it.check(skipValue(&it.d)) {
		return false
	}
	it.item.Value = it.d.buf[at:it.d.off:it.d.off]
	return true
}

// head parses the next item up to its value: the first half of Next, which
// DecodeNoteInto completes by decoding the value instead of skipping it.
func (it *ItemIter) head() bool {
	if it.err != nil {
		return false
	}
	if it.i == it.count {
		if r := it.d.remain(); r != 0 {
			it.err = fmt.Errorf("nsf: %d trailing bytes after note", r)
		}
		return false
	}
	it.start = it.d.off
	it.i++
	d := &it.d
	nameLen, err := d.length()
	if !it.check(err) {
		return false
	}
	it.nameAt = d.off
	name, err := d.bytes(nameLen)
	if !it.check(err) {
		return false
	}
	fl, err := d.byte1()
	if !it.check(err) {
		return false
	}
	rev, err := d.uvarint()
	if !it.check(err) {
		return false
	}
	it.item = RawItem{Name: name, Flags: ItemFlags(fl), Rev: uint32(rev)}
	return true
}

// check records err, if any, as the current item's and reports whether
// the walk may go on.
func (it *ItemIter) check(err error) bool {
	if err != nil {
		it.err = fmt.Errorf("nsf: item %d: %w", it.i-1, err)
		return false
	}
	return true
}

// Item returns the current item. Its slices alias the note's buffer.
func (it *ItemIter) Item() RawItem { return it.item }

// Err returns the error that stopped the walk, or nil. After Next has
// returned false, nil means the whole note is valid.
func (it *ItemIter) Err() error { return it.err }

// encoded returns the current item's whole encoding: name, flags, rev and
// value.
func (it *ItemIter) encoded() []byte { return it.d.buf[it.start:it.d.off] }

// AppendProjected appends to dst the encoding of the note in buf carrying
// only the items keep accepts (nil keeps all), in stored order, and returns
// the extended slice: the stored bytes are copied, not re-encoded. It
// validates buf exactly as DecodeNote does and on an error returns dst
// unchanged, so DecodeNote of what it appends is DecodeNoteItems(buf,
// keep). It allocates nothing once dst has room.
func AppendProjected(dst, buf []byte, keep func(name []byte, flags ItemFlags) bool) ([]byte, error) {
	var it ItemIter
	if err := it.Reset(buf, nil); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, buf[:noteHeaderLen]...)
	// The note's own count holds the place of the kept count: no fewer
	// bytes than the kept count needs.
	countAt := len(dst)
	dst = binary.AppendUvarint(dst, uint64(it.count))
	itemsAt := len(dst)
	kept := 0
	for it.Next() {
		if keep == nil || keep(it.item.Name, it.item.Flags) {
			dst = append(dst, it.encoded()...)
			kept++
		}
	}
	if err := it.Err(); err != nil {
		return dst[:start], err
	}
	w := binary.PutUvarint(dst[countAt:], uint64(kept))
	n := copy(dst[countAt+w:], dst[itemsAt:])
	return dst[:countAt+w+n], nil
}

// ItemValues sets values[i] to the stored value bytes (EncodeValue's form)
// of the first item in buf named names[i], compared as EqualNames does,
// or to nil when buf has none: what Note.Get would return, not decoded.
// The values alias buf; it validates buf as DecodeNote does and allocates
// nothing.
func ItemValues(buf []byte, names [][]byte, values [][]byte) error {
	clear(values)
	var it ItemIter
	if err := it.Reset(buf, nil); err != nil {
		return err
	}
	for it.Next() {
		for i, name := range names {
			if values[i] == nil && bytes.EqualFold(it.item.Name, name) {
				values[i] = it.item.Value
			}
		}
	}
	return it.Err()
}

// decodeHeader decodes an encoded note's fixed header into n.
func decodeHeader(d *decoder, n *Note) error {
	ver, err := d.byte1()
	if err != nil {
		return err
	}
	if ver != codecVersion {
		return fmt.Errorf("nsf: unsupported note encoding version %d", ver)
	}
	id, err := d.u32()
	if err != nil {
		return err
	}
	n.ID = NoteID(id)
	unid, err := d.bytes(16)
	if err != nil {
		return err
	}
	copy(n.OID.UNID[:], unid)
	if n.OID.Seq, err = d.u32(); err != nil {
		return err
	}
	st, err := d.u64()
	if err != nil {
		return err
	}
	n.OID.SeqTime = Timestamp(st)
	cls, err := d.u16()
	if err != nil {
		return err
	}
	n.Class = NoteClass(cls)
	fl, err := d.byte1()
	if err != nil {
		return err
	}
	n.Flags = NoteFlags(fl)
	cr, err := d.u64()
	if err != nil {
		return err
	}
	n.Created = Timestamp(cr)
	mo, err := d.u64()
	if err != nil {
		return err
	}
	n.Modified = Timestamp(mo)
	return nil
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

// decodeValue decodes one value, cutting its arrays from a (nil: arrays of
// its own, sized exactly). src, when non-empty, holds the same bytes as
// d.buf, and text entries are cut from it instead of copied.
func decodeValue(d *decoder, a *Arena, src string) (Value, error) {
	var v Value
	var textArr *[]string
	var numArr *[]float64
	var timeArr *[]Timestamp
	var rawArr *[]byte
	if a != nil {
		textArr, numArr, timeArr, rawArr = &a.text, &a.nums, &a.times, &a.raw
	}
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
		text := reserve(textArr, d.capFor(count, 1))
		for i := 0; i < count; i++ {
			sl, err := d.length()
			if err != nil {
				return v, err
			}
			b, err := d.bytes(sl)
			if err != nil {
				return v, err
			}
			if src != "" {
				text = append(text, src[d.off-sl:d.off])
			} else {
				text = append(text, string(b))
			}
		}
		v.Text = commit(textArr, text)
	case TypeNumber:
		count, err := d.length()
		if err != nil {
			return v, err
		}
		nums := reserve(numArr, d.capFor(count, 8))
		for i := 0; i < count; i++ {
			bits, err := d.u64()
			if err != nil {
				return v, err
			}
			nums = append(nums, math.Float64frombits(bits))
		}
		v.Numbers = commit(numArr, nums)
	case TypeTime:
		count, err := d.length()
		if err != nil {
			return v, err
		}
		times := reserve(timeArr, d.capFor(count, 8))
		for i := 0; i < count; i++ {
			tv, err := d.u64()
			if err != nil {
				return v, err
			}
			times = append(times, Timestamp(tv))
		}
		v.Times = commit(timeArr, times)
	case TypeRaw:
		size, err := d.length()
		if err != nil {
			return v, err
		}
		b, err := d.bytes(size)
		if err != nil {
			return v, err
		}
		if size > 0 {
			v.Raw = commit(rawArr, append(reserve(rawArr, size), b...))
		}
	case 0:
		// Zero value: nothing follows.
	default:
		return v, fmt.Errorf("nsf: unknown item type %d", t)
	}
	return v, nil
}

// Arena holds the arrays that decoded values share, so decoding many values
// costs a few growing arrays instead of an allocation per value. Each
// value's Text, Numbers, Times and Raw are cut from the arena with full
// slice expressions: an append to one value reallocates it and never writes
// into its neighbour. Values stay valid until Reset. The zero Arena is
// ready to use.
//
// An arena never reuses arrays it did not allocate: a formula's FIELD
// assignment may point a decoded note's item at the formula's own
// constants, which a reused value slot would then overwrite.
type Arena struct {
	text  []string
	nums  []float64
	times []Timestamp
	raw   []byte
	names map[string]string
}

// maxArenaNames bounds how many distinct item names an arena keeps.
const maxArenaNames = 256

// Reset lets the arena reuse its arrays. Every value decoded into it
// before is invalid afterwards.
func (a *Arena) Reset() {
	a.text, a.nums, a.times, a.raw = a.text[:0], a.nums[:0], a.times[:0], a.raw[:0]
}

// DecodeValue decodes a value produced by EncodeValue into a. src, when
// non-empty, must hold the same bytes as enc: text entries are then
// substrings of src rather than copies.
func (a *Arena) DecodeValue(enc []byte, src string) (Value, error) {
	d := &decoder{buf: enc}
	v, err := decodeValue(d, a, src)
	if err != nil {
		return Value{}, err
	}
	if d.remain() != 0 {
		return Value{}, fmt.Errorf("nsf: %d trailing bytes after value", d.remain())
	}
	return v, nil
}

// name returns an item name as a string, shared across the notes decoded
// into a (a nil arena copies it).
func (a *Arena) name(b []byte) string {
	if a == nil {
		return string(b)
	}
	if s, ok := a.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(a.names) < maxArenaNames {
		if a.names == nil {
			a.names = make(map[string]string)
		}
		a.names[s] = s
	}
	return s
}

// reserve returns an empty slice whose appends fill the room for n more
// elements it makes at the end of *arr (a nil arr: a slice of its own);
// commit then cuts them out of it.
func reserve[T any](arr *[]T, n int) []T {
	if arr == nil {
		return make([]T, 0, n)
	}
	*arr = slices.Grow(*arr, n)
	return (*arr)[len(*arr):]
}

// commit cuts the elements appended to room (from reserve) out of *arr,
// capacity-limited and non-nil. Room that outgrew its reservation has an
// array of its own and leaves *arr as it was.
func commit[T any](arr *[]T, room []T) []T {
	if room == nil {
		return []T{}
	}
	if arr != nil && cap(room) == cap(*arr)-len(*arr) {
		*arr = (*arr)[:len(*arr)+len(room)]
	}
	return room[:len(room):len(room)]
}
