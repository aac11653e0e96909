// Package view implements Domino-style view indexes: sorted, optionally
// categorized projections of the documents selected by a selection formula,
// maintained either incrementally (as documents change) or by full rebuild.
package view

import (
	"fmt"
	"strings"

	"repro/internal/formula"
	"repro/internal/nsf"
)

// Column describes one view column.
type Column struct {
	// Title is the display name.
	Title string
	// ItemName reads the named item directly; leave empty to use Formula.
	ItemName string
	// Formula computes the column value when ItemName is empty.
	Formula *formula.Formula
	// Sorted makes the column participate in the view's collation, in
	// column order.
	Sorted bool
	// Descending inverts this column's sort direction.
	Descending bool
	// Categorized renders the column as category rows. Implies Sorted.
	Categorized bool
	// Totals accumulates this column's numeric values into category header
	// rows and a grand-total row, like a Notes totals column.
	Totals bool
}

// Definition describes a view: its selection formula and columns.
type Definition struct {
	Name      string
	Selection *formula.Formula
	Columns   []Column
	// ShowResponses arranges documents carrying a $Ref item as a response
	// hierarchy: each response renders beneath its parent, indented, in
	// collation order among its siblings — the threaded rendering Notes
	// discussion databases are built on.
	ShowResponses bool
}

// NewDefinition builds a Definition, compiling the selection formula source.
func NewDefinition(name, selection string, cols ...Column) (*Definition, error) {
	sel, err := formula.Compile(selection)
	if err != nil {
		return nil, fmt.Errorf("view %s: selection: %w", name, err)
	}
	for i := range cols {
		if cols[i].Categorized {
			cols[i].Sorted = true
		}
		if cols[i].ItemName == "" && cols[i].Formula == nil {
			return nil, fmt.Errorf("view %s: column %d has neither item name nor formula", name, i)
		}
	}
	return &Definition{Name: name, Selection: sel, Columns: cols}, nil
}

// Entry is one document's row in a view index.
type Entry struct {
	UNID   nsf.UNID
	NoteID nsf.NoteID
	// Values holds one value per column.
	Values []nsf.Value
	// Access is the note's acl.ReadAccess list, for read-time filtering
	// without loading the note (nil when the note is unrestricted).
	Access []string
	// Parent is the UNID from the note's $Ref item, if any; it drives
	// response-hierarchy rendering.
	Parent nsf.UNID
	key    []byte
}

// ColumnText returns column i's value rendered as display text.
func (e *Entry) ColumnText(i int) string {
	if i < 0 || i >= len(e.Values) {
		return ""
	}
	return e.Values[i].String()
}

// restrictedCount is 1 for an entry with an access list, else 0.
func (e *Entry) restrictedCount() int {
	if len(e.Access) > 0 {
		return 1
	}
	return 0
}

// total returns the entry's contribution to a Totals column: the sum of
// column i's numbers.
func (e *Entry) total(i int) float64 {
	v := 0.0
	if i < len(e.Values) && e.Values[i].Type == nsf.TypeNumber {
		for _, n := range e.Values[i].Numbers {
			v += n
		}
	}
	return v
}

// parentOf extracts the parent UNID from a note's $Ref item.
func parentOf(note *nsf.Note) nsf.UNID {
	ref := note.Text("$Ref")
	if ref == "" {
		return nsf.UNID{}
	}
	u, err := nsf.ParseUNID(ref)
	if err != nil {
		return nsf.UNID{}
	}
	return u
}

// evalColumns computes the row values for note under def.
func evalColumns(def *Definition, note *nsf.Note, ctx *formula.Context) ([]nsf.Value, error) {
	vals := make([]nsf.Value, len(def.Columns))
	for i, col := range def.Columns {
		if col.ItemName != "" {
			vals[i] = note.Get(col.ItemName)
			continue
		}
		local := formula.Context{Note: note}
		if ctx != nil {
			local = *ctx
			local.Note = note
		}
		v, err := col.Formula.Eval(&local)
		if err != nil {
			return nil, fmt.Errorf("view %s: column %d (%s): %w", def.Name, i, col.Title, err)
		}
		vals[i] = v
	}
	return vals, nil
}

// collationKey builds an order-preserving byte key from the sorted columns'
// values, terminated by the UNID for total order.
func collationKey(def *Definition, vals []nsf.Value, unid nsf.UNID) []byte {
	var key []byte
	for i, col := range def.Columns {
		if !col.Sorted {
			continue
		}
		seg := encodeValue(vals[i])
		if col.Descending {
			for j := range seg {
				seg[j] ^= 0xFF
			}
		}
		key = append(key, seg...)
		key = append(key, 0x00) // segment separator (after inversion)
	}
	key = append(key, unid[:]...)
	return key
}

// Type tags order values of different types: numbers, then text, then time,
// matching Notes collation (numbers sort before text).
const (
	tagEmpty  = 0x01
	tagNumber = 0x02
	tagText   = 0x03
	tagTime   = 0x04
)

// encodeValue encodes the first entry of v order-preservingly.
func encodeValue(v nsf.Value) []byte {
	switch v.Type {
	case nsf.TypeNumber:
		if len(v.Numbers) == 0 {
			return []byte{tagEmpty}
		}
		return append([]byte{tagNumber}, encodeFloat(v.Numbers[0])...)
	case nsf.TypeText:
		if len(v.Text) == 0 {
			return []byte{tagEmpty}
		}
		s := strings.ToLower(v.Text[0])
		out := make([]byte, 0, len(s)+1)
		out = append(out, tagText)
		for i := 0; i < len(s); i++ {
			// 0x00 is the segment separator; remap to keep keys valid.
			if s[i] == 0x00 {
				out = append(out, 0x01)
				continue
			}
			out = append(out, s[i])
		}
		return out
	case nsf.TypeTime:
		if len(v.Times) == 0 {
			return []byte{tagEmpty}
		}
		t := uint64(v.Times[0]) ^ (1 << 63) // order-preserving for signed
		return []byte{tagTime,
			byte(t >> 56), byte(t >> 48), byte(t >> 40), byte(t >> 32),
			byte(t >> 24), byte(t >> 16), byte(t >> 8), byte(t)}
	default:
		return []byte{tagEmpty}
	}
}

// encodeFloat maps float64 to 8 bytes whose lexicographic order matches
// numeric order (IEEE 754 trick: flip sign bit for positives, all bits for
// negatives).
func encodeFloat(f float64) []byte {
	if f == 0 {
		f = 0 // normalize -0.0: equal values must encode identically
	}
	bits := floatBits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return []byte{
		byte(bits >> 56), byte(bits >> 48), byte(bits >> 40), byte(bits >> 32),
		byte(bits >> 24), byte(bits >> 16), byte(bits >> 8), byte(bits)}
}
