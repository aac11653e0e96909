package nsf

import (
	"slices"
	"strings"
)

// NoteClass distinguishes data documents from design and administrative
// notes stored in the same database.
type NoteClass uint16

// Note classes.
const (
	ClassDocument NoteClass = 1 << iota
	ClassForm
	ClassView
	ClassACL
	ClassAgent
	ClassReplFormula
	ClassAny NoteClass = 0xffff
)

// String returns the class name.
func (c NoteClass) String() string {
	switch c {
	case ClassDocument:
		return "document"
	case ClassForm:
		return "form"
	case ClassView:
		return "view"
	case ClassACL:
		return "acl"
	case ClassAgent:
		return "agent"
	case ClassReplFormula:
		return "replformula"
	case ClassAny:
		return "any"
	default:
		return "class?"
	}
}

// NoteFlags carry per-note state bits.
type NoteFlags uint8

// Note flags.
const (
	// FlagDeleted marks a deletion stub: the note's items are gone but its
	// identity and version survive so the deletion can replicate.
	FlagDeleted NoteFlags = 1 << iota
	// FlagConflict marks a replication/save conflict document.
	FlagConflict
	// FlagSelStub marks a selection stub: a deletion stub materialized on a
	// replica because the document fell outside (or never entered) a
	// selective-replication formula, not because anyone deleted it. It
	// carries the OID of the version it withholds. Unlike a true deletion
	// stub it has no deletion authority: a strictly newer live version —
	// the document re-entering the selection — resurrects the document.
	FlagSelStub
)

// OID is the originator ID: the note's universal identity plus its version.
// Seq counts the number of saves of the document anywhere in the replica
// set; SeqTime is the timestamp of the last save. Together they drive
// replication change detection and conflict resolution.
type OID struct {
	UNID    UNID
	Seq     uint32
	SeqTime Timestamp
}

// Newer reports whether o is the replication winner over other under the
// Notes rule: higher sequence number wins, ties break on later SeqTime.
func (o OID) Newer(other OID) bool {
	if o.Seq != other.Seq {
		return o.Seq > other.Seq
	}
	return o.SeqTime > other.SeqTime
}

// Note is a single document (or design element): a bag of items plus
// identity, version, and bookkeeping timestamps.
type Note struct {
	ID       NoteID // per-replica; 0 until stored
	OID      OID
	Class    NoteClass
	Flags    NoteFlags
	Created  Timestamp
	Modified Timestamp
	Items    []Item
}

// NewNote returns a fresh document note with a new UNID and the given items
// left to be filled in by Set calls.
func NewNote(class NoteClass) *Note {
	return &Note{OID: OID{UNID: NewUNID()}, Class: class}
}

// IsStub reports whether n is a deletion stub.
func (n *Note) IsStub() bool { return n.Flags&FlagDeleted != 0 }

// IsSelStub reports whether n is a selection stub: a stub standing in for
// a version withheld by selective replication rather than a deletion.
func (n *Note) IsSelStub() bool { return n.Flags&FlagSelStub != 0 }

// IsConflict reports whether n is a conflict document.
func (n *Note) IsConflict() bool { return n.Flags&FlagConflict != 0 }

// Item returns the item with the given (case-insensitive) name.
func (n *Note) Item(name string) (Item, bool) {
	for _, it := range n.Items {
		if EqualNames(it.Name, name) {
			return it, true
		}
	}
	return Item{}, false
}

// Has reports whether the note has an item with the given name.
func (n *Note) Has(name string) bool {
	_, ok := n.Item(name)
	return ok
}

// Get returns the value of the named item, or a zero Value if absent.
func (n *Note) Get(name string) Value {
	if it, ok := n.Item(name); ok {
		return it.Value
	}
	return Value{}
}

// Text returns the first text entry of the named item, or "".
func (n *Note) Text(name string) string {
	v := n.Get(name)
	if v.Type == TypeText && len(v.Text) > 0 {
		return v.Text[0]
	}
	return ""
}

// TextList returns all text entries of the named item.
func (n *Note) TextList(name string) []string {
	v := n.Get(name)
	if v.Type == TypeText {
		return v.Text
	}
	return nil
}

// Number returns the first number entry of the named item, or 0.
func (n *Note) Number(name string) float64 {
	v := n.Get(name)
	if v.Type == TypeNumber && len(v.Numbers) > 0 {
		return v.Numbers[0]
	}
	return 0
}

// Time returns the first time entry of the named item, or the zero Timestamp.
func (n *Note) Time(name string) Timestamp {
	v := n.Get(name)
	if v.Type == TypeTime && len(v.Times) > 0 {
		return v.Times[0]
	}
	return 0
}

// Set stores an item, replacing any existing item of the same name while
// preserving its flags unless flags are supplied via SetWithFlags.
func (n *Note) Set(name string, v Value) {
	for i := range n.Items {
		if EqualNames(n.Items[i].Name, name) {
			n.Items[i].Value = v
			return
		}
	}
	n.Items = append(n.Items, Item{Name: name, Value: v})
}

// SetWithFlags stores an item with explicit flags, replacing any existing
// item of the same name.
func (n *Note) SetWithFlags(name string, v Value, flags ItemFlags) {
	for i := range n.Items {
		if EqualNames(n.Items[i].Name, name) {
			n.Items[i].Value = v
			n.Items[i].Flags = flags
			return
		}
	}
	n.Items = append(n.Items, Item{Name: name, Value: v, Flags: flags})
}

// SetText stores a text item.
func (n *Note) SetText(name string, entries ...string) { n.Set(name, TextValue(entries...)) }

// SetNumber stores a number item.
func (n *Note) SetNumber(name string, entries ...float64) { n.Set(name, NumberValue(entries...)) }

// SetTime stores a time item.
func (n *Note) SetTime(name string, entries ...Timestamp) { n.Set(name, TimeValue(entries...)) }

// Remove deletes the named item. It reports whether an item was removed.
func (n *Note) Remove(name string) bool {
	for i := range n.Items {
		if EqualNames(n.Items[i].Name, name) {
			n.Items = slices.Delete(n.Items, i, i+1)
			return true
		}
	}
	return false
}

// ItemNames returns the names of all items in note order.
func (n *Note) ItemNames() []string {
	names := make([]string, len(n.Items))
	for i, it := range n.Items {
		names[i] = it.Name
	}
	return names
}

// Readers returns the union of all entries of items flagged Readers, or nil
// if the note has no reader restriction.
func (n *Note) Readers() []string {
	var out []string
	for _, it := range n.Items {
		if it.Flags.Has(FlagReaders) && it.Value.Type == TypeText {
			out = append(out, it.Value.Text...)
		}
	}
	return out
}

// Authors returns the union of all entries of items flagged Authors.
func (n *Note) Authors() []string {
	var out []string
	for _, it := range n.Items {
		if it.Flags.Has(FlagAuthors) && it.Value.Type == TypeText {
			out = append(out, it.Value.Text...)
		}
	}
	return out
}

// Clone returns a deep copy of n.
func (n *Note) Clone() *Note {
	c := *n
	c.Items = make([]Item, len(n.Items))
	for i, it := range n.Items {
		c.Items[i] = it.Clone()
	}
	return &c
}

// ChangedItems returns the names of items that differ between n and old:
// items added or modified in n, and items present in old but missing from
// n. Names are reported in lower case.
func (n *Note) ChangedItems(old *Note) []string {
	var changed []string
	seen := make(map[string]bool)
	for _, it := range n.Items {
		key := strings.ToLower(it.Name)
		seen[key] = true
		oldIt, ok := old.Item(it.Name)
		if !ok || !oldIt.Value.Equal(it.Value) || oldIt.Flags != it.Flags {
			changed = append(changed, key)
		}
	}
	for _, it := range old.Items {
		key := strings.ToLower(it.Name)
		if !seen[key] {
			changed = append(changed, key)
		}
	}
	slices.Sort(changed)
	return changed
}

// Summary returns a shallow note containing only summary-flagged items; it
// is the cheap projection replicated and indexed first.
func (n *Note) Summary() *Note {
	c := *n
	c.Items = nil
	for _, it := range n.Items {
		if it.Flags.Has(FlagSummary) {
			c.Items = append(c.Items, it.Clone())
		}
	}
	return &c
}
