package formula

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/nsf"
)

// projectionNote carries more than any test formula names: a Body and a
// Form nobody references, an item whose value names another item, a
// response reference, and Readers/Authors items.
func projectionNote() *nsf.Note {
	n := nsf.NewNote(nsf.ClassDocument)
	n.ID = 7
	n.OID.Seq = 3
	n.Created = nsf.Timestamp(1_000_000)
	n.Modified = nsf.Timestamp(2_000_000)
	n.SetText("Form", "Memo")
	n.SetText("Subject", "Quarterly Report")
	n.SetText("Extra", "Subject")
	n.SetNumber("Priority", 5)
	n.SetNumber("Count", 2, 3)
	n.SetTime("Due", nsf.Timestamp(3_000_000))
	n.SetText("Body", strings.Repeat("body text ", 100))
	n.SetText("$Ref", nsf.NewUNID().String())
	n.SetWithFlags("DocReaders", nsf.TextValue("ada", "carol"), nsf.FlagReaders|nsf.FlagNames)
	n.SetWithFlags("DocAuthors", nsf.TextValue("bob"), nsf.FlagAuthors|nsf.FlagNames)
	return n
}

// projectionFormulas calls every builtin with each kind of argument — a
// literal naming an item, and references to a text, number, time and list
// item — and adds the constructs that touch the note without a builtin:
// FIELD, DEFAULT, temps, @IsAvailable, @IsResponseDoc and @Authors.
func projectionFormulas() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	var srcs []string
	for _, name := range names {
		fn := builtins[name]
		arity := fn.arity
		if arity < 0 {
			arity = max(fn.minArity, 1)
		}
		if arity == 0 {
			srcs = append(srcs, name)
			continue
		}
		for _, arg := range []string{`"Extra"`, `"Form"`, "Subject", "Priority", "Due", "Count"} {
			args := make([]string, arity)
			for i := range args {
				args[i] = arg
			}
			srcs = append(srcs, name+"("+strings.Join(args, "; ")+")")
		}
	}
	return append(srcs,
		`FIELD Extra := "x"; Extra`,
		`FIELD Fresh := Priority * 2; Fresh`,
		`DEFAULT Extra := "fallback"; Extra`,
		`DEFAULT Extra := "fallback"; Subject`,
		`Extra := "temp"; Subject`,
		`DEFAULT Missing := "fallback"; Missing`,
		`Subject := "temp"; Subject`,
		`X := Priority; X > 4 & Extra = "Subject"`,
		`@IsAvailable(Extra)`,
		`@IsUnavailable(Extra)`,
		`@IsAvailable(Missing)`,
		`@IsResponseDoc`,
		`@Authors`,
		`@Contains(@Authors; "bob")`,
		`SELECT Priority > 4`,
		`SELECT @IsResponseDoc & Subject = "Quarterly Report"`,
		`SELECT @If(Priority > 4; Extra; Body) = "Subject"`,
	)
}

// TestFieldsProjectionIsEquivalent is the licence for scan projection: a
// note decoded through f.Keep() (f.Fields() plus its Readers/Authors
// items) evaluates —
// value, selection, error and the items it writes — exactly as the whole
// note does, for every builtin. A builtin that reads the note by some
// other route fails here until Fields covers it.
func TestFieldsProjectionIsEquivalent(t *testing.T) {
	now := func() nsf.Timestamp { return nsf.Timestamp(4_000_000) }
	for _, src := range projectionFormulas() {
		f, err := Compile(src)
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		whole := projectionNote()
		proj, err := nsf.DecodeNoteItems(nsf.EncodeNote(whole), f.Keep())
		if err != nil {
			t.Fatal(err)
		}
		if proj.Has("Body") && !slices.ContainsFunc(f.Fields(), func(s string) bool { return nsf.EqualNames(s, "Body") }) {
			t.Fatalf("%q: projection to %v kept Body", src, f.Fields())
		}
		wv, werr := f.Eval(&Context{Note: whole, UserName: "ada", Now: now})
		pv, perr := f.Eval(&Context{Note: proj, UserName: "ada", Now: now})
		if (werr == nil) != (perr == nil) || !wv.Equal(pv) {
			t.Errorf("%q: whole note gives (%v, %v), projection to %v gives (%v, %v)",
				src, wv, werr, f.Fields(), pv, perr)
		}
		// Every item the projection holds afterwards, read or written,
		// holds what the whole note holds: a DEFAULT whose target was
		// never decoded would otherwise invent a value.
		for _, it := range proj.Items {
			if !whole.Get(it.Name).Equal(it.Value) {
				t.Errorf("%q: item %s is %v after evaluating the whole note, %v after the projection",
					src, it.Name, whole.Get(it.Name), it.Value)
			}
		}
		ctx := &Context{UserName: "ada", Now: now}
		ws, werr := f.Selects(projectionNote(), ctx)
		ps, perr := f.Selects(proj, ctx)
		if ws != ps || (werr == nil) != (perr == nil) {
			t.Errorf("%q: Selects whole = (%v, %v), projected = (%v, %v)", src, ws, werr, ps, perr)
		}
	}
}

// TestSelectsMakesNoGarbage pins that a selection formula over a note
// of the forms a scan page runs (number comparisons, @IsAvailable)
// allocates nothing per note: no temps map, no lower-cased field names, no
// fresh literal or boolean values.
func TestSelectsMakesNoGarbage(t *testing.T) {
	f := MustCompile(`SELECT Priority > 4 | @IsAvailable(Missing)`)
	n := projectionNote()
	ctx := &Context{UserName: "ada"}
	if allocs := testing.AllocsPerRun(100, func() {
		if ok, err := f.Selects(n, ctx); err != nil || !ok {
			t.Fatalf("Selects = %v, %v", ok, err)
		}
	}); allocs != 0 {
		t.Errorf("Selects allocates %.0f times per note, want 0", allocs)
	}
}

// TestSelectsSharesNoStateAcrossCalls runs formulas that assign a temp and
// formulas that read the same name as a field from several goroutines at
// once: the recycled evaluation contexts must carry no temp from one call
// into another.
func TestSelectsSharesNoStateAcrossCalls(t *testing.T) {
	assign := MustCompile(`Priority := 99; Priority = 99`)
	read := MustCompile(`Priority = 5`)
	n := projectionNote()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if ok, err := assign.Selects(n, nil); err != nil || !ok {
					t.Errorf("temp assignment: Selects = %v, %v", ok, err)
					return
				}
				if ok, err := read.Selects(n, &Context{UserName: "ada"}); err != nil || !ok {
					t.Errorf("field read after a temp elsewhere: Selects = %v, %v", ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
