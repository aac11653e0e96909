package formula

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/nsf"
)

// TestCompileNeverPanics feeds the compiler random byte soup and random
// token salads; it must return errors, never panic. Formulas come from
// users (view designers, agent authors), so the parser is an input surface.
func TestCompileNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	// Random bytes.
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(60))
		rng.Read(b)
		_, _ = Compile(string(b))
	}
	// Random sequences of plausible tokens, more likely to get deep into
	// the parser.
	tokens := []string{
		"SELECT", "FIELD", "DEFAULT", "REM", ":=", ":", ";", "(", ")",
		"+", "-", "*", "/", "=", "!=", "<", ">", "<=", ">=", "&", "|", "!",
		"@If", "@All", "@Left", "@Contains", "@Unique", "Subject", "x",
		`"str"`, "42", "3.14", "[CN]", "{brace}",
	}
	for i := 0; i < 3000; i++ {
		n := 1 + rng.Intn(12)
		parts := make([]string, n)
		for j := range parts {
			parts[j] = tokens[rng.Intn(len(tokens))]
		}
		src := strings.Join(parts, " ")
		f, err := Compile(src)
		if err != nil || f == nil {
			continue
		}
		// Whatever compiled must also evaluate without panicking.
		note := nsf.NewNote(nsf.ClassDocument)
		note.SetText("Subject", "fuzz")
		_, _ = f.Eval(&Context{Note: note})
		_, _ = f.Selects(note, nil)
	}
}

// TestEvalNeverPanicsOnHostileNotes evaluates fixed formulas against notes
// with adversarial item shapes (empty lists, mixed types, huge names).
func TestEvalNeverPanicsOnHostileNotes(t *testing.T) {
	formulas := []*Formula{
		MustCompile(`SELECT Subject = "x" & Priority > 3`),
		MustCompile(`@Left(Subject; Priority) + @Text(@Sum(Priority; 1))`),
		MustCompile(`@Implode(@Explode(Subject); "-") : @Unique(Tags)`),
		MustCompile(`@If(@IsAvailable(Missing); Missing; "default")`),
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		// Adversarial values: empty lists, type mismatches for the item
		// names the formulas touch.
		switch rng.Intn(5) {
		case 0:
			n.Set("Subject", nsf.Value{Type: nsf.TypeText}) // empty list
			n.Set("Priority", nsf.Value{Type: nsf.TypeNumber})
		case 1:
			n.SetNumber("Subject", rng.Float64()) // wrong type
			n.SetText("Priority", "not a number")
		case 2:
			n.Set("Subject", nsf.RawValue([]byte{0, 1, 2}))
			n.SetTime("Priority", nsf.Timestamp(rng.Int63()))
		case 3:
			n.SetText("Subject", strings.Repeat("x", rng.Intn(1000)))
			n.SetNumber("Priority", rng.NormFloat64()*1e18)
		default:
			n.SetText("Tags", "a", "", "b", "")
		}
		for _, f := range formulas {
			_, _ = f.Eval(&Context{Note: n})
			_, _ = f.Selects(n, nil)
		}
	}
}

// FuzzCompile is the native fuzz target behind `make fuzz`: anything the
// compiler accepts must also evaluate and select without panicking. The
// selection formulas on replication-mesh links arrive over the admin wire
// ops and from topology files, so Compile is an input surface twice over.
func FuzzCompile(f *testing.F) {
	for _, seed := range []string{
		"",
		"SELECT @All",
		`SELECT Subject = "x" & Priority > 3`,
		`@If(@IsAvailable(Missing); Missing; "default")`,
		`@Implode(@Explode(Subject); "-") : @Unique(Tags)`,
		"FIELD Total := @Sum(Amounts); SELECT Total > 100",
		"((((",
		"@If(",
		"SELECT [CN] {brace} :=",
		"\"unterminated",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fl, err := Compile(src)
		if err != nil {
			return
		}
		if fl == nil {
			t.Fatalf("Compile(%q) returned nil formula with nil error", src)
		}
		note := nsf.NewNote(nsf.ClassDocument)
		note.SetText("Subject", "fuzz")
		note.SetNumber("Priority", 4)
		_, _ = fl.Eval(&Context{Note: note})
		_, _ = fl.Selects(note, nil)
	})
}

// FuzzFoldCompare holds foldCompare, which every text comparison in a
// formula makes, to the comparison of the lower-cased copies it replaces.
func FuzzFoldCompare(f *testing.F) {
	f.Add("Memo", "memo")
	f.Add("mIxEd CaSe", "Mixed case!")
	f.Add("İstanbul", "istanbul")
	f.Add("ǅungla ΣΊΣΥΦΟΣ", "ǆungla σίσυφοσ")
	f.Add("bad \xff\xfe UTF-8 \xc3", "bad �� UTF-8 �")
	f.Add("embedded\x00NUL", "embedded\x00nul")
	f.Add("", "\x00")
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := foldCompare(a, b), strings.Compare(strings.ToLower(a), strings.ToLower(b)); got != want {
			t.Fatalf("foldCompare(%q, %q) = %d, want %d", a, b, got, want)
		}
	})
}
