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
		ea, eb := encodeValue(a), encodeValue(b)
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
		cmp := bytes.Compare(encodeFloat(a), encodeFloat(b))
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
		if bytes.Compare(encodeFloat(edges[i]), encodeFloat(edges[i+1])) >= 0 {
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
