package nsf

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func sampleNote() *Note {
	n := NewNote(ClassDocument)
	n.ID = 42
	n.OID.Seq = 7
	n.OID.SeqTime = 1234567890
	n.Created = 111
	n.Modified = 222
	n.SetText("Subject", "hello world")
	n.SetText("Categories", "a", "b", "c")
	n.SetNumber("Priority", 3)
	n.SetTime("Due", 999)
	n.SetWithFlags("DocReaders", TextValue("alice", "bob"), FlagReaders|FlagSummary)
	n.Set("Blob", RawValue([]byte{0, 1, 2, 255}))
	return n
}

func TestCodecRoundTrip(t *testing.T) {
	n := sampleNote()
	enc := EncodeNote(n)
	got, err := DecodeNote(enc)
	if err != nil {
		t.Fatalf("DecodeNote: %v", err)
	}
	if !reflect.DeepEqual(n, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, n)
	}
}

// TestDecodeNoteOwned: the owned decode equals DecodeNote's, aliases
// nothing of its input, and cuts each value from the shared arrays with
// full slice expressions, so an append to one value never reaches its
// neighbour.
func TestDecodeNoteOwned(t *testing.T) {
	n := sampleNote()
	n.SetNumber("More", 4, 5)
	n.Set("Blob2", RawValue([]byte{9, 9}))
	enc := EncodeNote(n)
	var got Note
	if err := DecodeNoteOwned(&got, enc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, n) {
		t.Fatalf("owned decode mismatch:\n got %+v\nwant %+v", &got, n)
	}
	clear(enc)
	if !reflect.DeepEqual(&got, n) {
		t.Fatal("the owned note changed with its input buffer")
	}
	for _, name := range []string{"Subject", "Priority", "Due", "Blob"} {
		it, _ := got.Item(name)
		v := it.Value
		v.Text = append(v.Text, "x")
		v.Numbers = append(v.Numbers, 1)
		v.Times = append(v.Times, 1)
		v.Raw = append(v.Raw, 1)
	}
	if !reflect.DeepEqual(&got, n) {
		t.Fatal("an append to one value wrote into another")
	}
}

func TestCodecEmptyNote(t *testing.T) {
	n := NewNote(ClassDocument)
	got, err := DecodeNote(EncodeNote(n))
	if err != nil {
		t.Fatalf("DecodeNote: %v", err)
	}
	if got.OID.UNID != n.OID.UNID || len(got.Items) != 0 {
		t.Errorf("empty note mismatch: %+v", got)
	}
}

func TestCodecRejectsTruncation(t *testing.T) {
	enc := EncodeNote(sampleNote())
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeNote(enc[:cut]); err == nil {
			t.Fatalf("DecodeNote accepted truncation at %d bytes", cut)
		}
	}
}

func TestCodecRejectsTrailingGarbage(t *testing.T) {
	enc := EncodeNote(sampleNote())
	if _, err := DecodeNote(append(enc, 0xAB)); err == nil {
		t.Fatal("DecodeNote accepted trailing garbage")
	}
}

func TestCodecRejectsBadVersion(t *testing.T) {
	enc := EncodeNote(sampleNote())
	enc[0] = 99
	if _, err := DecodeNote(enc); err == nil {
		t.Fatal("DecodeNote accepted bad version")
	}
}

// TestCodecHostileCountsAllocateLittle feeds counts at the decoder's
// plausibility limit with nothing behind them: the note must be rejected as
// truncated without first preallocating for the claimed entries.
func TestCodecHostileCountsAllocateLittle(t *testing.T) {
	hdr := EncodeNote(NewNote(ClassDocument))
	hdr = hdr[:len(hdr)-1] // drop the zero item count
	huge := binary.AppendUvarint(nil, maxEncodedLen)
	item := append(append([]byte{1, 'x', 0, 0}, byte(TypeNumber)), huge...)
	for name, buf := range map[string][]byte{
		"items":   append(append([]byte{}, hdr...), huge...),
		"numbers": append(append(append([]byte{}, hdr...), 1), item...),
	} {
		for decoder, decode := range map[string]func([]byte) error{
			"DecodeNote":      func(b []byte) error { _, err := DecodeNote(b); return err },
			"DecodeNoteOwned": func(b []byte) error { return DecodeNoteOwned(new(Note), b) },
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := decode(buf)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s, %s: hostile count accepted", decoder, name)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("%s, %s: rejecting a %d-byte note allocated %d bytes", decoder, name, len(buf), grew)
			}
		}
	}
}

func TestCodecRejectsRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		buf := make([]byte, rng.Intn(200))
		rng.Read(buf)
		if len(buf) > 0 {
			buf[0] = codecVersion
		}
		// Must not panic; errors are fine, occasional accidental success is
		// acceptable for random input of valid shape.
		_, _ = DecodeNote(buf)
	}
}

func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(4) {
	case 0:
		n := rng.Intn(4)
		entries := make([]string, n)
		for i := range entries {
			b := make([]byte, rng.Intn(12))
			rng.Read(b)
			entries[i] = string(b)
		}
		return TextValue(entries...)
	case 1:
		n := rng.Intn(4)
		entries := make([]float64, n)
		for i := range entries {
			entries[i] = rng.NormFloat64() * 1e6
		}
		return NumberValue(entries...)
	case 2:
		n := rng.Intn(4)
		entries := make([]Timestamp, n)
		for i := range entries {
			entries[i] = Timestamp(rng.Int63())
		}
		return TimeValue(entries...)
	default:
		b := make([]byte, rng.Intn(32))
		rng.Read(b)
		return RawValue(b)
	}
}

// TestCodecQuick property-tests that encode→decode is the identity over
// randomly generated notes.
func TestCodecQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := NewNote(ClassDocument)
		n.ID = NoteID(rng.Uint32())
		n.OID.Seq = rng.Uint32()
		n.OID.SeqTime = Timestamp(rng.Int63())
		n.Flags = NoteFlags(rng.Intn(4))
		n.Created = Timestamp(rng.Int63())
		n.Modified = Timestamp(rng.Int63())
		for i, k := 0, rng.Intn(8); i < k; i++ {
			nameBytes := make([]byte, 1+rng.Intn(10))
			rng.Read(nameBytes)
			n.Items = append(n.Items, Item{
				Name:  string(nameBytes),
				Flags: ItemFlags(rng.Intn(32)),
				Rev:   rng.Uint32(),
				Value: randomValue(rng),
			})
		}
		got, err := DecodeNote(EncodeNote(n))
		if err != nil {
			t.Logf("decode error: %v", err)
			return false
		}
		return noteEqual(n, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// noteEqual compares notes treating nil and empty slices as equal.
func noteEqual(a, b *Note) bool {
	if a.ID != b.ID || a.OID != b.OID || a.Class != b.Class || a.Flags != b.Flags ||
		a.Created != b.Created || a.Modified != b.Modified || len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		x, y := a.Items[i], b.Items[i]
		if x.Name != y.Name || x.Flags != y.Flags || x.Rev != y.Rev || !x.Value.Equal(y.Value) {
			return false
		}
	}
	return true
}

func TestValueEqualNaN(t *testing.T) {
	a := NumberValue(math.NaN())
	b := NumberValue(math.NaN())
	if !a.Equal(b) {
		t.Error("NaN values should compare equal for replication purposes")
	}
}
