package repl

import (
	"fmt"

	"repro/internal/formula"
)

// FormulaError reports an invalid selective-replication formula. It is
// returned by Options.Prepare, Replicate, and the summary/push phases, so
// callers that accept link definitions (the mesh admin surface, dominod
// config parsing) can reject a bad formula at construction time with the
// offending source attached, instead of surfacing a parse error in the
// middle of a replication round.
type FormulaError struct {
	// Source is the formula text that failed to compile.
	Source string
	// Err is the underlying compile error.
	Err error
}

func (e *FormulaError) Error() string {
	return fmt.Sprintf("repl: selective formula %q: %v", e.Source, e.Err)
}

func (e *FormulaError) Unwrap() error { return e.Err }

// CompileSelection compiles a selective-replication formula source
// (formula.Cached: memoized). An empty source yields a nil formula
// (replicate everything). Compile failures return a *FormulaError.
func CompileSelection(src string) (*formula.Formula, error) {
	if src == "" {
		return nil, nil
	}
	f, err := formula.Cached(src)
	if err != nil {
		return nil, &FormulaError{Source: src, Err: err}
	}
	return f, nil
}

// Prepare validates the options ahead of use, so a bad selection formula
// surfaces at link or option construction as a typed *FormulaError rather
// than mid-round. The compile is memoized (CompileSelection): the sessions
// run with the options do not compile it again.
func (o *Options) Prepare() error {
	_, err := CompileSelection(o.Formula)
	return err
}

// selection returns the compiled selection formula (nil: everything).
func (o Options) selection() (*formula.Formula, error) { return CompileSelection(o.Formula) }
