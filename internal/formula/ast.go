package formula

import "repro/internal/nsf"

// expr is a node of the parsed formula tree.
type expr interface{ isExpr() }

// litExpr is a literal value: a number or a string, built once at parse
// time and shared by every evaluation (values are never mutated).
type litExpr struct{ val nsf.Value }

// fieldExpr references an item on the current note (or a temp variable set
// by an earlier statement).
type fieldExpr struct{ name string }

// callExpr invokes an @function. Arguments are separated by ';' inside the
// parentheses, per Notes syntax.
type callExpr struct {
	name string // lower-case, including the '@'
	args []expr
}

// unaryExpr is !x or -x.
type unaryExpr struct {
	op tokenKind
	x  expr
}

// binExpr is a binary operation.
type binExpr struct {
	op   tokenKind
	l, r expr
}

func (litExpr) isExpr()   {}
func (fieldExpr) isExpr() {}
func (callExpr) isExpr()  {}
func (unaryExpr) isExpr() {}
func (binExpr) isExpr()   {}

// stmtKind distinguishes the statement forms.
type stmtKind int

const (
	stmtExpr stmtKind = iota
	stmtSelect
	stmtAssignTemp
	stmtAssignField
	stmtAssignDefault
)

// stmt is one semicolon-separated statement.
type stmt struct {
	kind stmtKind
	name string // assignment target
	x    expr
}
