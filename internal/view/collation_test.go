package view

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/nsf"
)

// valueLess is the reference ordering encodeValue must preserve: empty
// values first, then numbers numerically, then text case-insensitively,
// then times chronologically.
func valueLess(a, b nsf.Value) bool {
	ra, rb := rankOf(a), rankOf(b)
	if ra != rb {
		return ra < rb
	}
	switch ra {
	case 1: // number
		return a.Numbers[0] < b.Numbers[0]
	case 2: // text
		return strings.ToLower(a.Text[0]) < strings.ToLower(b.Text[0])
	case 3: // time
		return a.Times[0] < b.Times[0]
	default:
		return false
	}
}

func rankOf(v nsf.Value) int {
	switch {
	case v.Type == nsf.TypeNumber && len(v.Numbers) > 0:
		return 1
	case v.Type == nsf.TypeText && len(v.Text) > 0:
		return 2
	case v.Type == nsf.TypeTime && len(v.Times) > 0:
		return 3
	default:
		return 0
	}
}

func randomCollValue(rng *rand.Rand) nsf.Value {
	switch rng.Intn(4) {
	case 0:
		return nsf.Value{}
	case 1:
		n := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
		if rng.Intn(10) == 0 {
			n = 0
		}
		if rng.Intn(10) == 0 {
			n = -n
		}
		return nsf.NumberValue(n)
	case 2:
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte('A' + rng.Intn(50))
		}
		return nsf.TextValue(string(b))
	default:
		return nsf.TimeValue(nsf.Timestamp(rng.Int63() - rng.Int63()))
	}
}

// TestEncodeValuePreservesOrder property-tests that the byte encoding of
// values sorts exactly like the values themselves — the invariant the
// entire view collation rests on.
func TestEncodeValuePreservesOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomCollValue(rng), randomCollValue(rng)
		ea, eb := encodeValue(nil, a), encodeValue(nil, b)
		cmp := bytes.Compare(ea, eb)
		switch {
		case valueLess(a, b):
			return cmp < 0
		case valueLess(b, a):
			return cmp > 0
		default:
			// Equal under the reference order: encodings must compare equal
			// too (e.g. case-folded text).
			return cmp == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeFloatTotalOrder(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		cmp := bytes.Compare(encodeFloat(nil, a), encodeFloat(nil, b))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
	// Hand-picked edge cases.
	edges := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1)}
	for i := 0; i < len(edges)-1; i++ {
		if bytes.Compare(encodeFloat(nil, edges[i]), encodeFloat(nil, edges[i+1])) >= 0 {
			t.Errorf("encodeFloat order broken between %v and %v", edges[i], edges[i+1])
		}
	}
}

func TestDescendingInversionPreservesOrder(t *testing.T) {
	def := mustDef(t, "d", "SELECT @All",
		Column{Title: "N", ItemName: "N", Sorted: true, Descending: true})
	ix := NewIndex(def)
	vals := []float64{3, -7, 0, 100, 2.5}
	for _, v := range vals {
		ix.Update(doc(map[string]any{"N": v}), nil)
	}
	got := subjects(ix, 0)
	want := []string{"100", "3", "2.5", "0", "-7"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("descending order = %v, want %v", got, want)
		}
	}
}

// refCollationKey, refEncodeValue and refEncodeFloat are the collation key
// builder as it was before it appended into a reused buffer: each segment
// a slice of its own, text lower-cased by a strings.ToLower copy. They are
// the reference FuzzCollationKey holds the builder to, byte for byte.
func refCollationKey(def *Definition, vals []nsf.Value, unid nsf.UNID) []byte {
	var key []byte
	for i, col := range def.Columns {
		if !col.Sorted {
			continue
		}
		seg := refEncodeValue(vals[i])
		if col.Descending {
			for j := range seg {
				seg[j] ^= 0xFF
			}
		}
		key = append(key, seg...)
		key = append(key, 0x00)
	}
	return append(key, unid[:]...)
}

func refEncodeValue(v nsf.Value) []byte {
	switch v.Type {
	case nsf.TypeNumber:
		if len(v.Numbers) == 0 {
			return []byte{tagEmpty}
		}
		return append([]byte{tagNumber}, refEncodeFloat(v.Numbers[0])...)
	case nsf.TypeText:
		if len(v.Text) == 0 {
			return []byte{tagEmpty}
		}
		s := strings.ToLower(v.Text[0])
		out := []byte{tagText}
		for i := 0; i < len(s); i++ {
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
		t := uint64(v.Times[0]) ^ (1 << 63)
		return []byte{tagTime,
			byte(t >> 56), byte(t >> 48), byte(t >> 40), byte(t >> 32),
			byte(t >> 24), byte(t >> 16), byte(t >> 8), byte(t)}
	default:
		return []byte{tagEmpty}
	}
}

func refEncodeFloat(f float64) []byte {
	if f == 0 {
		f = 0
	}
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return []byte{
		byte(bits >> 56), byte(bits >> 48), byte(bits >> 40), byte(bits >> 32),
		byte(bits >> 24), byte(bits >> 16), byte(bits >> 8), byte(bits)}
}

// FuzzCollationKey checks the collation key builder against the reference
// builder above on fuzzer-chosen values: four columns whose types, sort and
// direction come from kinds, over two texts, a number and a time. The key
// must be byte-identical, and appending it after other bytes must leave
// them in place.
func FuzzCollationKey(f *testing.F) {
	f.Add("Hello WORLD", "mIxEd CaSe", 1.5, int64(7), byte(0x00))
	f.Add("İstanbul", "ǅungla ΣΊΣΥΦΟΣ", -3.25, int64(-1), byte(0x1b))
	f.Add("bad \xff\xfe UTF-8 \xc3", "\xef\xbf\xbd kept", math.Inf(1), int64(math.MinInt64), byte(0x6c))
	f.Add("embedded\x00NUL", "\x00", math.Copysign(0, -1), int64(math.MaxInt64), byte(0xff))
	f.Add("Descending", "descending", math.NaN(), int64(0), byte(0xf0))
	f.Fuzz(func(t *testing.T, s1, s2 string, num float64, tm int64, kinds byte) {
		values := []nsf.Value{
			nsf.TextValue(s1, s2),
			nsf.TextValue(s2),
			nsf.NumberValue(num),
			nsf.TimeValue(nsf.Timestamp(tm)),
			{},
			{Type: nsf.TypeText, Text: []string{}},
		}
		def := &Definition{Name: "fuzz"}
		vals := make([]nsf.Value, 4)
		for i := range vals {
			k := kinds >> (2 * i) & 3
			vals[i] = values[(int(k)+i+int(kinds>>7))%len(values)]
			def.Columns = append(def.Columns, Column{
				Title:      "c",
				Sorted:     k != 3,
				Descending: k&1 == 1,
			})
		}
		var unid nsf.UNID
		copy(unid[:], s1)
		want := refCollationKey(def, vals, unid)
		if got := collationKey(nil, def, vals, unid); !bytes.Equal(got, want) {
			t.Fatalf("collationKey = %x, reference %x", got, want)
		}
		got := collationKey([]byte("prefix"), def, vals, unid)
		if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("collationKey after a prefix = %x, want prefix then %x", got, want)
		}
	})
}
