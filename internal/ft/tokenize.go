// Package ft implements per-database full-text search: an incrementally
// maintained inverted index with positions (for phrase queries), a boolean
// query language (AND, OR, NOT, "phrases"), tf-idf ranking, and a linear
// scan baseline used to validate results and benchmark the index.
package ft

import (
	"unicode"
	"unicode/utf8"

	"repro/internal/nsf"
)

// stopwords are excluded from the index and from queries.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "has": true, "he": true,
	"in": true, "is": true, "it": true, "its": true, "of": true, "on": true,
	"or": true, "that": true, "the": true, "to": true, "was": true, "were": true,
	"will": true, "with": true,
}

const maxTermLen = 64

// maxStopword is the length of the longest stopword; a longer term is
// never looked up.
const maxStopword = 4

// termWalker yields the index terms of a text, or of every text value of a
// note in item order, without allocating once its buffer has grown. A term
// is a maximal run of letters and digits, lower-cased: a byte below 0x80
// takes the ASCII fast path (A-Z fold, every byte but a-z and 0-9
// separates); any other byte starts a UTF-8 rune, mapped by
// unicode.ToLower, that separates unless the mapped rune is a letter or a
// digit (invalid UTF-8 decodes to U+FFFD, which separates). That is
// strings.ToLower followed by FieldsFunc(!IsLetter && !IsDigit), rune for
// rune. Stopwords and terms over maxTermLen bytes are skipped, and the end
// of one text value ends its last term.
type termWalker struct {
	note       *nsf.Note
	item, text int // the note's next text value
	s          string
	i          int
	buf        []byte
}

// reset starts a walk over one text.
func (w *termWalker) reset(s string) { *w = termWalker{s: s, buf: w.buf} }

// resetNote starts a walk over every text value of n.
func (w *termWalker) resetNote(n *nsf.Note) { *w = termWalker{note: n, buf: w.buf} }

// next returns the next term, valid until the following call, or false at
// the end of the walk.
func (w *termWalker) next() ([]byte, bool) {
	for {
		for w.i < len(w.s) {
			w.buf = w.buf[:0]
			w.term()
			if n := len(w.buf); n > 0 && n <= maxTermLen && (n > maxStopword || !stopwords[string(w.buf)]) {
				return w.buf, true
			}
		}
		if !w.nextText() {
			return nil, false
		}
	}
}

// term consumes characters up to and including the next separator,
// appending the lower-cased form of each one before it to buf.
func (w *termWalker) term() {
	for w.i < len(w.s) {
		c := w.s[w.i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(w.s[w.i:])
			w.i += size
			if r = unicode.ToLower(r); !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				return
			}
			w.buf = utf8.AppendRune(w.buf, r)
			continue
		}
		w.i++
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return
		}
		w.buf = append(w.buf, c)
	}
}

// nextText moves the walk to the note's next text value, reporting false
// when there is none. Raw items and non-text types are skipped.
func (w *termWalker) nextText() bool {
	for w.note != nil && w.item < len(w.note.Items) {
		if v := &w.note.Items[w.item].Value; v.Type == nsf.TypeText && w.text < len(v.Text) {
			w.s, w.i = v.Text[w.text], 0
			w.text++
			return true
		}
		w.item, w.text = w.item+1, 0
	}
	return false
}

// tokenize returns the terms of text, the way the index sees them.
func tokenize(text string) []string {
	var out []string
	var w termWalker
	for w.reset(text); ; {
		t, ok := w.next()
		if !ok {
			return out
		}
		out = append(out, string(t))
	}
}
