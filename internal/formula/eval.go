package formula

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"repro/internal/nsf"
)

// Context supplies the environment a formula evaluates against.
type Context struct {
	// Note is the current document. May be nil for pure expressions.
	Note *nsf.Note
	// UserName is the effective user, returned by @UserName and used by
	// computed Author fields.
	UserName string
	// Now supplies the current time for @Now. If nil, time items evaluate
	// @Now to zero.
	Now func() nsf.Timestamp
	// temps holds values assigned with := during this evaluation, keyed by
	// lower-cased name; it is made on the first assignment.
	temps map[string]nsf.Value
}

// temp looks up a temp variable, lower-casing name only when a temp exists.
func (ctx *Context) temp(name string) (nsf.Value, bool) {
	if len(ctx.temps) == 0 {
		return nsf.Value{}, false
	}
	v, ok := ctx.temps[strings.ToLower(name)]
	return v, ok
}

// Formula is a compiled formula, safe for concurrent evaluation.
type Formula struct {
	src   string
	stmts []stmt
	// hasSelect records whether any statement is a SELECT.
	hasSelect bool
	// fields lists every item name evaluation may read or write.
	fields []string
}

// Compile parses src into a reusable Formula.
func Compile(src string) (*Formula, error) {
	stmts, err := parseFormula(src)
	if err != nil {
		return nil, err
	}
	f := &Formula{src: src, stmts: stmts}
	for _, s := range stmts {
		if s.kind == stmtSelect {
			f.hasSelect = true
		}
		if s.kind != stmtExpr && s.kind != stmtSelect {
			f.addField(s.name)
		}
		f.collectFields(s.x)
	}
	return f, nil
}

// Fields returns every item name an evaluation of f may read or write, once
// each (case-insensitively): the field references, the FIELD, DEFAULT and
// temp assignment targets (a DEFAULT must see the stored item it would
// otherwise overwrite), and $Ref for @IsResponseDoc. A note carrying these
// items, its header and its Readers/Authors items (@Authors, access checks)
// evaluates exactly as the whole note does — what lets a scan decode only
// the items its page needs.
func (f *Formula) Fields() []string { return slices.Clone(f.fields) }

// Keep returns the DecodeNoteItems filter that projects a note for f: its
// Fields, the extra names, and every Readers/Authors item (@Authors finds
// its items by flag, and access checks read them). f may be nil: the
// filter then keeps the extra names and the Readers/Authors items.
func (f *Formula) Keep(extra ...string) func(name []byte, flags nsf.ItemFlags) bool {
	if f != nil {
		extra = append(f.Fields(), extra...)
	}
	return nsf.KeepItems(extra, nsf.FlagReaders|nsf.FlagAuthors)
}

func (f *Formula) collectFields(e expr) {
	switch e := e.(type) {
	case fieldExpr:
		f.addField(e.name)
	case callExpr:
		if e.name == "@isresponsedoc" {
			f.addField("$Ref")
		}
		for _, a := range e.args {
			f.collectFields(a)
		}
	case unaryExpr:
		f.collectFields(e.x)
	case binExpr:
		f.collectFields(e.l)
		f.collectFields(e.r)
	}
}

func (f *Formula) addField(name string) {
	for _, have := range f.fields {
		if nsf.EqualNames(have, name) {
			return
		}
	}
	f.fields = append(f.fields, name)
}

// MustCompile is Compile, panicking on error; for static formulas.
func MustCompile(src string) *Formula {
	f, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return f
}

// Source returns the original formula text.
func (f *Formula) Source() string { return f.src }

// Eval runs the formula and returns the value of the last statement.
// FIELD assignments mutate ctx.Note.
func (f *Formula) Eval(ctx *Context) (nsf.Value, error) {
	v, _, err := f.run(ctx)
	return v, err
}

// Selects evaluates the formula as a selection formula against note and
// reports whether the note is selected: the value of the SELECT statement
// if present, otherwise the final value, interpreted as a boolean.
func (f *Formula) Selects(note *nsf.Note, ctx *Context) (bool, error) {
	local := selectContexts.Get().(*Context)
	temps := local.temps
	if ctx != nil {
		*local = *ctx
	} else {
		*local = Context{}
	}
	local.Note, local.temps = note, temps
	v, sel, err := f.run(local)
	*local = Context{temps: local.temps}
	selectContexts.Put(local)
	if err != nil {
		return false, err
	}
	if f.hasSelect {
		return truthy(sel), nil
	}
	return truthy(v), nil
}

// selectContexts recycles the contexts Selects evaluates in (a copy of the
// caller's, pointed at the note), so a selection run over many notes
// allocates neither a Context nor a temps map per note.
var selectContexts = sync.Pool{New: func() any { return new(Context) }}

// run executes all statements, returning the final value and the value of
// the last SELECT statement.
func (f *Formula) run(ctx *Context) (last, sel nsf.Value, err error) {
	clear(ctx.temps)
	for _, s := range f.stmts {
		v, err := evalExpr(ctx, s.x)
		if err != nil {
			return nsf.Value{}, nsf.Value{}, err
		}
		switch s.kind {
		case stmtSelect:
			sel = v
		case stmtAssignTemp:
			if ctx.temps == nil {
				ctx.temps = make(map[string]nsf.Value)
			}
			ctx.temps[strings.ToLower(s.name)] = v
		case stmtAssignField:
			if ctx.Note == nil {
				return nsf.Value{}, nsf.Value{}, fmt.Errorf("formula: FIELD %s assignment without a note", s.name)
			}
			ctx.Note.Set(s.name, v)
		case stmtAssignDefault:
			if ctx.Note != nil && !ctx.Note.Has(s.name) {
				ctx.Note.Set(s.name, v)
			}
		}
		last = v
	}
	return last, sel, nil
}

// truthy interprets a value as a boolean: any non-zero number, any non-empty
// text entry, or any non-zero time.
func truthy(v nsf.Value) bool {
	switch v.Type {
	case nsf.TypeNumber:
		for _, n := range v.Numbers {
			if n != 0 {
				return true
			}
		}
	case nsf.TypeText:
		for _, s := range v.Text {
			if s != "" {
				return true
			}
		}
	case nsf.TypeTime:
		for _, t := range v.Times {
			if t != 0 {
				return true
			}
		}
	}
	return false
}

// trueValue and falseValue are shared by every boolean result. Their
// one-element slices have cap == len, so an append copies, and values are
// never mutated in place.
var (
	trueValue  = nsf.NumberValue(1)
	falseValue = nsf.NumberValue(0)
)

func boolValue(b bool) nsf.Value {
	if b {
		return trueValue
	}
	return falseValue
}

func evalExpr(ctx *Context, e expr) (nsf.Value, error) {
	switch e := e.(type) {
	case litExpr:
		return e.val, nil
	case fieldExpr:
		if v, ok := ctx.temp(e.name); ok {
			return v, nil
		}
		if ctx.Note != nil {
			if it, ok := ctx.Note.Item(e.name); ok {
				return it.Value, nil
			}
		}
		// Unavailable fields evaluate to the empty string, as in Notes.
		return nsf.TextValue(""), nil
	case callExpr:
		return evalCall(ctx, e)
	case unaryExpr:
		x, err := evalExpr(ctx, e.x)
		if err != nil {
			return nsf.Value{}, err
		}
		switch e.op {
		case tokBang:
			return boolValue(!truthy(x)), nil
		case tokMinus:
			nums, err := asNumbers(x)
			if err != nil {
				return nsf.Value{}, err
			}
			out := make([]float64, len(nums))
			for i, n := range nums {
				out[i] = -n
			}
			return nsf.NumberValue(out...), nil
		}
		return nsf.Value{}, fmt.Errorf("formula: bad unary operator")
	case binExpr:
		return evalBin(ctx, e)
	default:
		return nsf.Value{}, fmt.Errorf("formula: unknown expression node %T", e)
	}
}

func evalBin(ctx *Context, e binExpr) (nsf.Value, error) {
	// & and | short-circuit.
	switch e.op {
	case tokAmp:
		l, err := evalExpr(ctx, e.l)
		if err != nil {
			return nsf.Value{}, err
		}
		if !truthy(l) {
			return boolValue(false), nil
		}
		r, err := evalExpr(ctx, e.r)
		if err != nil {
			return nsf.Value{}, err
		}
		return boolValue(truthy(r)), nil
	case tokPipe:
		l, err := evalExpr(ctx, e.l)
		if err != nil {
			return nsf.Value{}, err
		}
		if truthy(l) {
			return boolValue(true), nil
		}
		r, err := evalExpr(ctx, e.r)
		if err != nil {
			return nsf.Value{}, err
		}
		return boolValue(truthy(r)), nil
	}
	l, err := evalExpr(ctx, e.l)
	if err != nil {
		return nsf.Value{}, err
	}
	r, err := evalExpr(ctx, e.r)
	if err != nil {
		return nsf.Value{}, err
	}
	switch e.op {
	case tokColon:
		return concatLists(l, r)
	case tokPlus, tokMinus, tokStar, tokSlash:
		return arith(e.op, l, r)
	case tokEq, tokNeq, tokLt, tokGt, tokLe, tokGe:
		return compare(e.op, l, r)
	}
	return nsf.Value{}, fmt.Errorf("formula: bad binary operator %v", e.op)
}

// concatLists implements ':'. Mixed text/number concatenation coerces
// numbers to text, matching the common Notes usage.
func concatLists(l, r nsf.Value) (nsf.Value, error) {
	if l.Type == r.Type {
		switch l.Type {
		case nsf.TypeText:
			return nsf.TextValue(append(append([]string{}, l.Text...), r.Text...)...), nil
		case nsf.TypeNumber:
			return nsf.NumberValue(append(append([]float64{}, l.Numbers...), r.Numbers...)...), nil
		case nsf.TypeTime:
			return nsf.TimeValue(append(append([]nsf.Timestamp{}, l.Times...), r.Times...)...), nil
		}
	}
	lt, rt := asTexts(l), asTexts(r)
	return nsf.TextValue(append(append([]string{}, lt...), rt...)...), nil
}

// arith applies an arithmetic operator pairwise. Text '+' concatenates.
// Unequal list lengths reuse the shorter list's last element.
func arith(op tokenKind, l, r nsf.Value) (nsf.Value, error) {
	if op == tokPlus && (l.Type == nsf.TypeText || r.Type == nsf.TypeText) {
		lt, rt := asTexts(l), asTexts(r)
		n := max(len(lt), len(rt))
		if len(lt) == 0 || len(rt) == 0 {
			n = 0
		}
		out := make([]string, n)
		for i := range out {
			out[i] = pickText(lt, i) + pickText(rt, i)
		}
		return nsf.TextValue(out...), nil
	}
	ln, err := asNumbers(l)
	if err != nil {
		return nsf.Value{}, err
	}
	rn, err := asNumbers(r)
	if err != nil {
		return nsf.Value{}, err
	}
	n := max(len(ln), len(rn))
	if len(ln) == 0 || len(rn) == 0 {
		n = 0
	}
	out := make([]float64, n)
	for i := range out {
		a, b := pickNum(ln, i), pickNum(rn, i)
		switch op {
		case tokPlus:
			out[i] = a + b
		case tokMinus:
			out[i] = a - b
		case tokStar:
			out[i] = a * b
		case tokSlash:
			if b == 0 {
				return nsf.Value{}, fmt.Errorf("formula: division by zero")
			}
			out[i] = a / b
		}
	}
	return nsf.NumberValue(out...), nil
}

// compare implements permuted comparison: the relation holds if any pair of
// elements (one from each side) satisfies it. != is the negation of =.
func compare(op tokenKind, l, r nsf.Value) (nsf.Value, error) {
	if op == tokNeq {
		v, err := compare(tokEq, l, r)
		if err != nil {
			return nsf.Value{}, err
		}
		return boolValue(!truthy(v)), nil
	}
	cmpNums := func(a, b float64) bool { return relHolds(op, cmpFloat(a, b)) }
	cmpText := func(a, b string) bool { return relHolds(op, foldCompare(a, b)) }
	switch {
	case l.Type == nsf.TypeNumber && r.Type == nsf.TypeNumber:
		for _, a := range l.Numbers {
			for _, b := range r.Numbers {
				if cmpNums(a, b) {
					return boolValue(true), nil
				}
			}
		}
	case l.Type == nsf.TypeTime && r.Type == nsf.TypeTime:
		for _, a := range l.Times {
			for _, b := range r.Times {
				if relHolds(op, cmpInt64(int64(a), int64(b))) {
					return boolValue(true), nil
				}
			}
		}
	default:
		for _, a := range asTexts(l) {
			for _, b := range asTexts(r) {
				if cmpText(a, b) {
					return boolValue(true), nil
				}
			}
		}
	}
	return boolValue(false), nil
}

// foldCompare returns strings.Compare(strings.ToLower(a),
// strings.ToLower(b)) without the lower-cased copies: it compares the
// strings rune by rune, each rune lower-cased and an invalid UTF-8 byte
// read as U+FFFD, as strings.ToLower rewrites it. UTF-8 orders runes as
// their code points, so comparing the runes orders the strings as their
// lower-cased bytes.
func foldCompare(a, b string) int {
	for a != "" && b != "" {
		ra, na := foldRune(a)
		rb, nb := foldRune(b)
		if ra != rb {
			return cmp.Compare(ra, rb)
		}
		a, b = a[na:], b[nb:]
	}
	return cmp.Compare(len(a), len(b))
}

// foldRune returns the first rune of s, lower-cased, and its width in s.
func foldRune(s string) (rune, int) {
	if c := s[0]; c < utf8.RuneSelf {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		return rune(c), 1
	}
	r, n := utf8.DecodeRuneInString(s)
	return unicode.ToLower(r), n
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func relHolds(op tokenKind, c int) bool {
	switch op {
	case tokEq:
		return c == 0
	case tokLt:
		return c < 0
	case tokGt:
		return c > 0
	case tokLe:
		return c <= 0
	case tokGe:
		return c >= 0
	default:
		return false
	}
}

// --- coercions ---

func asNumbers(v nsf.Value) ([]float64, error) {
	switch v.Type {
	case nsf.TypeNumber:
		return v.Numbers, nil
	case nsf.TypeText:
		// The empty string (unavailable field) coerces to an empty list.
		var out []float64
		for _, s := range v.Text {
			if s == "" {
				continue
			}
			var n float64
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &n); err != nil {
				return nil, fmt.Errorf("formula: cannot use text %q as a number", s)
			}
			out = append(out, n)
		}
		return out, nil
	case nsf.TypeTime:
		out := make([]float64, len(v.Times))
		for i, t := range v.Times {
			out[i] = float64(t)
		}
		return out, nil
	default:
		return nil, nil
	}
}

func asTexts(v nsf.Value) []string {
	switch v.Type {
	case nsf.TypeText:
		return v.Text
	case nsf.TypeNumber:
		out := make([]string, len(v.Numbers))
		for i, n := range v.Numbers {
			out[i] = formatFloat(n)
		}
		return out
	case nsf.TypeTime:
		out := make([]string, len(v.Times))
		for i, t := range v.Times {
			out[i] = t.String()
		}
		return out
	default:
		return nil
	}
}

func formatFloat(n float64) string {
	if n == float64(int64(n)) {
		return fmt.Sprintf("%d", int64(n))
	}
	return fmt.Sprintf("%g", n)
}

func pickText(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return s[len(s)-1]
}

func pickNum(s []float64, i int) float64 {
	if i < len(s) {
		return s[i]
	}
	return s[len(s)-1]
}
