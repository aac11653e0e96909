package formula

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/nsf"
)

// evalCall dispatches an @function invocation.
func evalCall(ctx *Context, e callExpr) (nsf.Value, error) {
	// @If evaluates lazily: @If(cond1; val1; cond2; val2; ...; else).
	if e.name == "@if" {
		if len(e.args) < 3 || len(e.args)%2 == 0 {
			return nsf.Value{}, fmt.Errorf("formula: @If wants an odd number of arguments >= 3")
		}
		for i := 0; i+1 < len(e.args); i += 2 {
			cond, err := evalExpr(ctx, e.args[i])
			if err != nil {
				return nsf.Value{}, err
			}
			if truthy(cond) {
				return evalExpr(ctx, e.args[i+1])
			}
		}
		return evalExpr(ctx, e.args[len(e.args)-1])
	}
	// @IsAvailable / @IsUnavailable inspect the argument node unevaluated.
	if e.name == "@isavailable" || e.name == "@isunavailable" {
		if len(e.args) != 1 {
			return nsf.Value{}, fmt.Errorf("formula: %s wants 1 argument", e.name)
		}
		fe, ok := e.args[0].(fieldExpr)
		if !ok {
			return nsf.Value{}, fmt.Errorf("formula: %s wants a field name", e.name)
		}
		avail := false
		if _, isTemp := ctx.temp(fe.name); isTemp {
			avail = true
		} else if ctx.Note != nil && ctx.Note.Has(fe.name) {
			avail = true
		}
		if e.name == "@isunavailable" {
			avail = !avail
		}
		return boolValue(avail), nil
	}

	fn, ok := builtins[e.name]
	if !ok {
		return nsf.Value{}, fmt.Errorf("formula: unknown function %s", e.name)
	}
	args := make([]nsf.Value, len(e.args))
	for i, a := range e.args {
		v, err := evalExpr(ctx, a)
		if err != nil {
			return nsf.Value{}, err
		}
		args[i] = v
	}
	if fn.arity >= 0 && len(args) != fn.arity {
		return nsf.Value{}, fmt.Errorf("formula: %s wants %d arguments, got %d", e.name, fn.arity, len(args))
	}
	if fn.minArity > 0 && len(args) < fn.minArity {
		return nsf.Value{}, fmt.Errorf("formula: %s wants at least %d arguments, got %d", e.name, fn.minArity, len(args))
	}
	return fn.call(ctx, args)
}

type builtin struct {
	arity    int // exact arity, -1 for variadic
	minArity int
	call     func(ctx *Context, args []nsf.Value) (nsf.Value, error)
}

// mapText lifts a per-entry string transform to a whole-value function.
func mapText(f func(string) string) builtin {
	return builtin{arity: 1, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
		in := asTexts(args[0])
		out := make([]string, len(in))
		for i, s := range in {
			out[i] = f(s)
		}
		return nsf.TextValue(out...), nil
	}}
}

// mapNum lifts a per-entry numeric transform.
func mapNum(f func(float64) float64) builtin {
	return builtin{arity: 1, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
		in, err := asNumbers(args[0])
		if err != nil {
			return nsf.Value{}, err
		}
		out := make([]float64, len(in))
		for i, n := range in {
			out[i] = f(n)
		}
		return nsf.NumberValue(out...), nil
	}}
}

// textPair lifts a pairwise (string, string) predicate over two lists with
// permuted semantics: true if any pair satisfies f.
func textPair(f func(a, b string) bool) builtin {
	return builtin{arity: 2, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
		for _, a := range asTexts(args[0]) {
			for _, b := range asTexts(args[1]) {
				if f(a, b) {
					return boolValue(true), nil
				}
			}
		}
		return boolValue(false), nil
	}}
}

var builtins map[string]builtin

func init() {
	builtins = map[string]builtin{
		"@all":   {arity: 0, call: func(_ *Context, _ []nsf.Value) (nsf.Value, error) { return boolValue(true), nil }},
		"@true":  {arity: 0, call: func(_ *Context, _ []nsf.Value) (nsf.Value, error) { return boolValue(true), nil }},
		"@false": {arity: 0, call: func(_ *Context, _ []nsf.Value) (nsf.Value, error) { return boolValue(false), nil }},

		"@contains": textPair(func(a, b string) bool {
			return strings.Contains(strings.ToLower(a), strings.ToLower(b))
		}),
		"@begins": textPair(func(a, b string) bool {
			return strings.HasPrefix(strings.ToLower(a), strings.ToLower(b))
		}),
		"@ends": textPair(func(a, b string) bool {
			return strings.HasSuffix(strings.ToLower(a), strings.ToLower(b))
		}),
		"@matches": textPair(func(a, b string) bool {
			return matchPattern(strings.ToLower(a), strings.ToLower(b))
		}),

		"@lowercase":  mapText(strings.ToLower),
		"@uppercase":  mapText(strings.ToUpper),
		"@propercase": mapText(properCase),
		"@trim": {arity: 1, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			var out []string
			for _, s := range asTexts(args[0]) {
				s = strings.Join(strings.Fields(s), " ")
				if s != "" {
					out = append(out, s)
				}
			}
			return nsf.TextValue(out...), nil
		}},
		"@length": {arity: 1, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			in := asTexts(args[0])
			out := make([]float64, len(in))
			for i, s := range in {
				out[i] = float64(len(s))
			}
			return nsf.NumberValue(out...), nil
		}},
		"@left": {arity: 2, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			return sliceText(args[0], args[1], func(s string, n int) string {
				if n > len(s) {
					n = len(s)
				}
				if n < 0 {
					n = 0
				}
				return s[:n]
			})
		}},
		"@right": {arity: 2, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			return sliceText(args[0], args[1], func(s string, n int) string {
				if n > len(s) {
					n = len(s)
				}
				if n < 0 {
					n = 0
				}
				return s[len(s)-n:]
			})
		}},
		"@word": {arity: 3, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			seps := asTexts(args[1])
			nums, err := asNumbers(args[2])
			if err != nil {
				return nsf.Value{}, err
			}
			if len(seps) == 0 || len(nums) == 0 {
				return nsf.TextValue(), nil
			}
			sep, idx := seps[0], int(nums[0])
			in := asTexts(args[0])
			out := make([]string, len(in))
			for i, s := range in {
				parts := strings.Split(s, sep)
				if idx >= 1 && idx <= len(parts) {
					out[i] = parts[idx-1]
				}
			}
			return nsf.TextValue(out...), nil
		}},
		"@replacesubstring": {arity: 3, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			from, to := asTexts(args[1]), asTexts(args[2])
			in := asTexts(args[0])
			out := make([]string, len(in))
			for i, s := range in {
				for j, f := range from {
					repl := ""
					if len(to) > 0 {
						repl = pickText(to, j)
					}
					s = strings.ReplaceAll(s, f, repl)
				}
				out[i] = s
			}
			return nsf.TextValue(out...), nil
		}},
		"@text": {arity: 1, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			return nsf.TextValue(asTexts(args[0])...), nil
		}},
		"@texttonumber": {arity: 1, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			n, err := asNumbers(args[0])
			if err != nil {
				return nsf.Value{}, err
			}
			return nsf.NumberValue(n...), nil
		}},

		"@elements": {arity: 1, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			return nsf.NumberValue(float64(args[0].Len())), nil
		}},
		"@explode": {arity: -1, minArity: 1, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			seps := " ,;"
			if len(args) > 1 {
				if t := asTexts(args[1]); len(t) > 0 {
					seps = t[0]
				}
			}
			var out []string
			for _, s := range asTexts(args[0]) {
				out = append(out, splitAny(s, seps)...)
			}
			return nsf.TextValue(out...), nil
		}},
		"@implode": {arity: -1, minArity: 1, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			sep := " "
			if len(args) > 1 {
				if t := asTexts(args[1]); len(t) > 0 {
					sep = t[0]
				}
			}
			return nsf.TextValue(strings.Join(asTexts(args[0]), sep)), nil
		}},
		"@unique": {arity: -1, minArity: 0, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			if len(args) == 0 {
				return nsf.TextValue(fmt.Sprintf("U%d", uniqueCounter.Add(1))), nil
			}
			seen := make(map[string]bool)
			var out []string
			for _, s := range asTexts(args[0]) {
				key := strings.ToLower(s)
				if !seen[key] {
					seen[key] = true
					out = append(out, s)
				}
			}
			return nsf.TextValue(out...), nil
		}},
		"@subset": {arity: 2, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			nums, err := asNumbers(args[1])
			if err != nil {
				return nsf.Value{}, err
			}
			if len(nums) == 0 {
				return nsf.Value{}, fmt.Errorf("formula: @Subset wants a count")
			}
			n := int(nums[0])
			in := asTexts(args[0])
			switch {
			case n > 0:
				if n > len(in) {
					n = len(in)
				}
				return nsf.TextValue(in[:n]...), nil
			case n < 0:
				k := -n
				if k > len(in) {
					k = len(in)
				}
				return nsf.TextValue(in[len(in)-k:]...), nil
			default:
				return nsf.Value{}, fmt.Errorf("formula: @Subset count must be non-zero")
			}
		}},
		"@member": {arity: 2, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			list := asTexts(args[1])
			for _, want := range asTexts(args[0]) {
				for i, s := range list {
					if strings.EqualFold(want, s) {
						return nsf.NumberValue(float64(i + 1)), nil
					}
				}
			}
			return nsf.NumberValue(0), nil
		}},

		"@sum": {arity: -1, minArity: 1, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			total := 0.0
			for _, a := range args {
				nums, err := asNumbers(a)
				if err != nil {
					return nsf.Value{}, err
				}
				for _, n := range nums {
					total += n
				}
			}
			return nsf.NumberValue(total), nil
		}},
		"@min": {arity: -1, minArity: 1, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			return foldNums(args, math.Inf(1), math.Min)
		}},
		"@max": {arity: -1, minArity: 1, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			return foldNums(args, math.Inf(-1), math.Max)
		}},
		"@abs":     mapNum(math.Abs),
		"@sign":    mapNum(func(n float64) float64 { return float64(cmpFloat(n, 0)) }),
		"@integer": mapNum(math.Trunc),
		"@round":   mapNum(math.Round),
		"@sqrt":    mapNum(math.Sqrt),
		"@modulo": {arity: 2, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			a, err := asNumbers(args[0])
			if err != nil {
				return nsf.Value{}, err
			}
			b, err := asNumbers(args[1])
			if err != nil {
				return nsf.Value{}, err
			}
			n := max(len(a), len(b))
			if len(a) == 0 || len(b) == 0 {
				n = 0
			}
			out := make([]float64, n)
			for i := range out {
				d := pickNum(b, i)
				if d == 0 {
					return nsf.Value{}, fmt.Errorf("formula: @Modulo by zero")
				}
				out[i] = math.Mod(pickNum(a, i), d)
			}
			return nsf.NumberValue(out...), nil
		}},

		"@now": {arity: 0, call: func(ctx *Context, _ []nsf.Value) (nsf.Value, error) {
			if ctx.Now == nil {
				return nsf.TimeValue(0), nil
			}
			return nsf.TimeValue(ctx.Now()), nil
		}},
		"@created": {arity: 0, call: func(ctx *Context, _ []nsf.Value) (nsf.Value, error) {
			if ctx.Note == nil {
				return nsf.TimeValue(0), nil
			}
			return nsf.TimeValue(ctx.Note.Created), nil
		}},
		"@modified": {arity: 0, call: func(ctx *Context, _ []nsf.Value) (nsf.Value, error) {
			if ctx.Note == nil {
				return nsf.TimeValue(0), nil
			}
			return nsf.TimeValue(ctx.Note.Modified), nil
		}},
		"@year":   timePart(func(t nsf.Timestamp) float64 { return float64(t.Time().Year()) }),
		"@month":  timePart(func(t nsf.Timestamp) float64 { return float64(t.Time().Month()) }),
		"@day":    timePart(func(t nsf.Timestamp) float64 { return float64(t.Time().Day()) }),
		"@hour":   timePart(func(t nsf.Timestamp) float64 { return float64(t.Time().Hour()) }),
		"@minute": timePart(func(t nsf.Timestamp) float64 { return float64(t.Time().Minute()) }),
		"@second": timePart(func(t nsf.Timestamp) float64 { return float64(t.Time().Second()) }),

		"@username": {arity: 0, call: func(ctx *Context, _ []nsf.Value) (nsf.Value, error) {
			return nsf.TextValue(ctx.UserName), nil
		}},
		"@documentuniqueid": {arity: 0, call: func(ctx *Context, _ []nsf.Value) (nsf.Value, error) {
			if ctx.Note == nil {
				return nsf.TextValue(""), nil
			}
			return nsf.TextValue(ctx.Note.OID.UNID.String()), nil
		}},
		"@noteid": {arity: 0, call: func(ctx *Context, _ []nsf.Value) (nsf.Value, error) {
			if ctx.Note == nil {
				return nsf.NumberValue(0), nil
			}
			return nsf.NumberValue(float64(ctx.Note.ID)), nil
		}},
		"@isresponsedoc": {arity: 0, call: func(ctx *Context, _ []nsf.Value) (nsf.Value, error) {
			return boolValue(ctx.Note != nil && ctx.Note.Has("$Ref")), nil
		}},
		"@isconflict": {arity: 0, call: func(ctx *Context, _ []nsf.Value) (nsf.Value, error) {
			return boolValue(ctx.Note != nil && ctx.Note.IsConflict()), nil
		}},
		"@authors": {arity: 0, call: func(ctx *Context, _ []nsf.Value) (nsf.Value, error) {
			if ctx.Note == nil {
				return nsf.TextValue(), nil
			}
			return nsf.TextValue(ctx.Note.Authors()...), nil
		}},

		"@date": {arity: -1, minArity: 1, call: fnDate},
		"@adjust": {arity: 7, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			if args[0].Type != nsf.TypeTime || len(args[0].Times) == 0 {
				return nsf.Value{}, fmt.Errorf("formula: @Adjust wants a time first argument")
			}
			deltas := make([]int, 6)
			for i := 0; i < 6; i++ {
				nums, err := asNumbers(args[i+1])
				if err != nil {
					return nsf.Value{}, err
				}
				if len(nums) > 0 {
					deltas[i] = int(nums[0])
				}
			}
			out := make([]nsf.Timestamp, len(args[0].Times))
			for i, ts := range args[0].Times {
				adj := ts.Time().AddDate(deltas[0], deltas[1], deltas[2]).
					Add(time.Duration(deltas[3])*time.Hour +
						time.Duration(deltas[4])*time.Minute +
						time.Duration(deltas[5])*time.Second)
				out[i] = nsf.TimestampOf(adj)
			}
			return nsf.TimeValue(out...), nil
		}},
		"@today": {arity: 0, call: func(ctx *Context, _ []nsf.Value) (nsf.Value, error) {
			if ctx.Now == nil {
				return nsf.TimeValue(0), nil
			}
			y, m, d := ctx.Now().Time().Date()
			return nsf.TimeValue(nsf.TimestampOf(time.Date(y, m, d, 0, 0, 0, 0, time.UTC))), nil
		}},
		"@weekday": timePart(func(t nsf.Timestamp) float64 {
			return float64(t.Time().Weekday()) + 1 // Notes: Sunday = 1
		}),
		"@name": {arity: 2, call: fnName},
		"@keywords": {arity: -1, minArity: 2, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			seps := " ,;"
			if len(args) > 2 {
				if t := asTexts(args[2]); len(t) > 0 {
					seps = t[0]
				}
			}
			present := make(map[string]bool)
			for _, s := range asTexts(args[0]) {
				for _, w := range splitAny(s, seps) {
					present[strings.ToLower(w)] = true
				}
			}
			var out []string
			for _, kw := range asTexts(args[1]) {
				if present[strings.ToLower(kw)] {
					out = append(out, kw)
				}
			}
			return nsf.TextValue(out...), nil
		}},
		"@sort": {arity: -1, minArity: 1, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			descending := false
			if len(args) > 1 {
				if t := asTexts(args[1]); len(t) > 0 && strings.EqualFold(t[0], "descending") {
					descending = true
				}
			}
			if args[0].Type == nsf.TypeNumber {
				out := append([]float64(nil), args[0].Numbers...)
				sort.Float64s(out)
				if descending {
					slices.Reverse(out)
				}
				return nsf.NumberValue(out...), nil
			}
			out := append([]string(nil), asTexts(args[0])...)
			sort.Slice(out, func(i, j int) bool {
				return strings.ToLower(out[i]) < strings.ToLower(out[j])
			})
			if descending {
				slices.Reverse(out)
			}
			return nsf.TextValue(out...), nil
		}},
		"@repeat": {arity: 2, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
			nums, err := asNumbers(args[1])
			if err != nil {
				return nsf.Value{}, err
			}
			if len(nums) == 0 || nums[0] < 0 || nums[0] > 1<<16 {
				return nsf.Value{}, fmt.Errorf("formula: @Repeat count out of range")
			}
			in := asTexts(args[0])
			out := make([]string, len(in))
			for i, s := range in {
				out[i] = strings.Repeat(s, int(nums[0]))
			}
			return nsf.TextValue(out...), nil
		}},
	}
}

// fnDate implements @Date(y; m; d [; h; mi; s]) and @Date(timevalue).
func fnDate(_ *Context, args []nsf.Value) (nsf.Value, error) {
	if len(args) == 1 && args[0].Type == nsf.TypeTime {
		out := make([]nsf.Timestamp, len(args[0].Times))
		for i, ts := range args[0].Times {
			y, m, d := ts.Time().Date()
			out[i] = nsf.TimestampOf(time.Date(y, m, d, 0, 0, 0, 0, time.UTC))
		}
		return nsf.TimeValue(out...), nil
	}
	if len(args) != 3 && len(args) != 6 {
		return nsf.Value{}, fmt.Errorf("formula: @Date wants a time value, 3 numbers, or 6 numbers")
	}
	parts := make([]int, 6)
	for i, a := range args {
		nums, err := asNumbers(a)
		if err != nil {
			return nsf.Value{}, err
		}
		if len(nums) == 0 {
			return nsf.Value{}, fmt.Errorf("formula: @Date argument %d is empty", i+1)
		}
		parts[i] = int(nums[0])
	}
	tm := time.Date(parts[0], time.Month(parts[1]), parts[2],
		parts[3], parts[4], parts[5], 0, time.UTC)
	return nsf.TimeValue(nsf.TimestampOf(tm)), nil
}

// fnName implements @Name([part]; name) for hierarchical names of the form
// "CN=Ada Lovelace/OU=Eng/O=Acme". Supported parts: [CN], [O], [OU],
// [Abbreviate] (strip component tags), [Canonicalize] (ensure CN= prefix on
// flat names).
func fnName(_ *Context, args []nsf.Value) (nsf.Value, error) {
	parts := asTexts(args[0])
	if len(parts) == 0 {
		return nsf.Value{}, fmt.Errorf("formula: @Name wants a part keyword")
	}
	part := strings.ToLower(strings.Trim(parts[0], "[]"))
	in := asTexts(args[1])
	out := make([]string, len(in))
	for i, name := range in {
		out[i] = namePart(part, name)
	}
	return nsf.TextValue(out...), nil
}

func namePart(part, name string) string {
	components := strings.Split(name, "/")
	find := func(tag string) string {
		for _, c := range components {
			if k, v, ok := strings.Cut(c, "="); ok && strings.EqualFold(k, tag) {
				return v
			}
		}
		return ""
	}
	switch part {
	case "cn":
		if v := find("CN"); v != "" {
			return v
		}
		if !strings.Contains(name, "=") {
			return components[0]
		}
		return ""
	case "o":
		return find("O")
	case "ou":
		return find("OU")
	case "abbreviate":
		out := make([]string, 0, len(components))
		for _, c := range components {
			if _, v, ok := strings.Cut(c, "="); ok {
				out = append(out, v)
			} else {
				out = append(out, c)
			}
		}
		return strings.Join(out, "/")
	case "canonicalize":
		if strings.Contains(name, "=") {
			return name
		}
		return "CN=" + name
	default:
		return name
	}
}

func timePart(f func(nsf.Timestamp) float64) builtin {
	return builtin{arity: 1, call: func(_ *Context, args []nsf.Value) (nsf.Value, error) {
		if args[0].Type != nsf.TypeTime {
			return nsf.Value{}, fmt.Errorf("formula: time function wants a time value")
		}
		out := make([]float64, len(args[0].Times))
		for i, t := range args[0].Times {
			out[i] = f(t)
		}
		return nsf.NumberValue(out...), nil
	}}
}

func foldNums(args []nsf.Value, init float64, f func(a, b float64) float64) (nsf.Value, error) {
	acc := init
	seen := false
	for _, a := range args {
		nums, err := asNumbers(a)
		if err != nil {
			return nsf.Value{}, err
		}
		for _, n := range nums {
			acc = f(acc, n)
			seen = true
		}
	}
	if !seen {
		return nsf.NumberValue(), nil
	}
	return nsf.NumberValue(acc), nil
}

func sliceText(v, count nsf.Value, f func(string, int) string) (nsf.Value, error) {
	nums, err := asNumbers(count)
	if err != nil {
		return nsf.Value{}, err
	}
	if len(nums) == 0 {
		return nsf.TextValue(), nil
	}
	n := int(nums[0])
	in := asTexts(v)
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = f(s, n)
	}
	return nsf.TextValue(out...), nil
}

func properCase(s string) string {
	words := strings.Fields(strings.ToLower(s))
	for i, w := range words {
		words[i] = strings.ToUpper(w[:1]) + w[1:]
	}
	return strings.Join(words, " ")
}

func splitAny(s, seps string) []string {
	var out []string
	for _, part := range strings.FieldsFunc(s, func(r rune) bool {
		return strings.ContainsRune(seps, r)
	}) {
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// matchPattern implements the Notes @Matches wildcard syntax: '?' matches
// one character, '*' matches any run.
func matchPattern(s, pat string) bool {
	// Classic iterative glob match.
	var si, pi, star, mark = 0, 0, -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '?' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '*':
			star = pi
			mark = si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '*' {
		pi++
	}
	return pi == len(pat)
}

// uniqueCounter backs the zero-argument @Unique.
var uniqueCounter atomic.Int64
