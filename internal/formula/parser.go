package formula

import (
	"fmt"
	"strings"

	"repro/internal/nsf"
)

// parser is a recursive-descent parser with classic precedence climbing.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token         { return p.toks[p.pos] }
func (p *parser) next() token         { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(k tokenKind) bool { return p.toks[p.pos].kind == k }

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.peek()
	if t.kind != k {
		return t, fmt.Errorf("formula: expected %v at %d, found %v", k, t.pos, t.kind)
	}
	return p.next(), nil
}

// parseFormula parses a whole formula: statements separated by semicolons.
// A trailing semicolon is tolerated.
func parseFormula(src string) ([]stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []stmt
	for !p.at(tokEOF) {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if p.at(tokSemi) {
			p.next()
			continue
		}
		break
	}
	if !p.at(tokEOF) {
		t := p.peek()
		return nil, fmt.Errorf("formula: unexpected %v at %d", t.kind, t.pos)
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("formula: empty formula")
	}
	return stmts, nil
}

func (p *parser) parseStmt() (stmt, error) {
	if p.at(tokIdent) {
		word := strings.ToUpper(p.peek().text)
		switch word {
		case "SELECT":
			p.next()
			x, err := p.parseExpr()
			if err != nil {
				return stmt{}, err
			}
			return stmt{kind: stmtSelect, x: x}, nil
		case "FIELD", "DEFAULT":
			kw := p.next()
			name, err := p.expect(tokIdent)
			if err != nil {
				return stmt{}, err
			}
			if _, err := p.expect(tokAssign); err != nil {
				return stmt{}, err
			}
			x, err := p.parseExpr()
			if err != nil {
				return stmt{}, err
			}
			kind := stmtAssignField
			if strings.ToUpper(kw.text) == "DEFAULT" {
				kind = stmtAssignDefault
			}
			return stmt{kind: kind, name: name.text, x: x}, nil
		case "REM":
			// REM "comment"; — consume the string and yield a no-op.
			p.next()
			if p.at(tokString) {
				p.next()
			}
			return stmt{kind: stmtExpr, x: litExpr{val: nsf.TextValue("")}}, nil
		}
		// Plain temp assignment: ident := expr
		if p.toks[p.pos+1].kind == tokAssign {
			name := p.next()
			p.next() // :=
			x, err := p.parseExpr()
			if err != nil {
				return stmt{}, err
			}
			return stmt{kind: stmtAssignTemp, name: name.text, x: x}, nil
		}
	}
	x, err := p.parseExpr()
	if err != nil {
		return stmt{}, err
	}
	return stmt{kind: stmtExpr, x: x}, nil
}

// Precedence, loosest first: |, &, comparisons, + -, * /, unary, :, primary.
func (p *parser) parseExpr() (expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(tokPipe) {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = binExpr{op: tokPipe, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.at(tokAmp) {
		p.next()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = binExpr{op: tokAmp, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseCmp() (expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for {
		k := p.peek().kind
		switch k {
		case tokEq, tokNeq, tokLt, tokGt, tokLe, tokGe:
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			l = binExpr{op: k, l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseAdd() (expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.at(tokPlus) || p.at(tokMinus) {
		k := p.next().kind
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = binExpr{op: k, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseMul() (expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tokStar) || p.at(tokSlash) {
		k := p.next().kind
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = binExpr{op: k, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (expr, error) {
	switch p.peek().kind {
	case tokBang:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryExpr{op: tokBang, x: x}, nil
	case tokMinus:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryExpr{op: tokMinus, x: x}, nil
	case tokPlus:
		p.next()
		return p.parseUnary()
	}
	return p.parseList()
}

// parseList handles the ':' list-concatenation operator, which binds tighter
// than arithmetic: 1:2+3 is (1:2)+3.
func (p *parser) parseList() (expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.at(tokColon) {
		p.next()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = binExpr{op: tokColon, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parsePrimary() (expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		return litExpr{val: nsf.NumberValue(t.num)}, nil
	case tokString:
		p.next()
		return litExpr{val: nsf.TextValue(t.text)}, nil
	case tokLParen:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return x, nil
	case tokIdent:
		p.next()
		if strings.HasPrefix(t.text, "@") {
			name := strings.ToLower(t.text)
			var args []expr
			if p.at(tokLParen) {
				p.next()
				if !p.at(tokRParen) {
					for {
						a, err := p.parseExpr()
						if err != nil {
							return nil, err
						}
						args = append(args, a)
						if p.at(tokSemi) {
							p.next()
							continue
						}
						break
					}
				}
				if _, err := p.expect(tokRParen); err != nil {
					return nil, err
				}
			}
			return callExpr{name: name, args: args}, nil
		}
		return fieldExpr{name: t.text}, nil
	default:
		return nil, fmt.Errorf("formula: unexpected %v at %d", t.kind, t.pos)
	}
}
