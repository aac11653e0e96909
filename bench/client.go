package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/bench/kit"
	"repro/internal/nsf"
	"repro/internal/wire"
	"repro/internal/workload"
)

const (
	searchLimit = 50
	scanLimit   = 1000
	batchDocs   = 64
	scanFormula = "SELECT Priority > 4"
)

var (
	searchColumns = []string{"Subject"}
	scanColumns   = []string{"Subject", "From"}
)

// client is one closed-loop user: it sends its next request only when the
// previous reply has arrived, as a Notes client does, and checks every
// answer against its model.
type client struct {
	id    int
	fc    *wire.FailoverClient
	db    *wire.FailoverDB
	ops   []kit.Op
	pos   int
	own   *model // documents this client reads and writes
	maker *docMaker
	edits *workload.Generator
	// sorted is the whole corpus in view order when nothing writes it, so
	// a page can be held against the exact row window; nil otherwise.
	sorted   []*doc
	viewRows int // rows the sorted view had when the run began
	queries  []string
	cursor   []byte

	// slices tallies the measured window slice by slice; point says which
	// classes' latencies point_p50_us gates.
	slices *kit.Slices
	point  [kit.NumKinds]bool

	lat       [kit.NumKinds]kit.Hist
	scanRows  int
	batchDocs int
	attempted int
	failed    int
	firstErr  error
	// ackedDeletes lists the documents whose deletion was acknowledged.
	ackedDeletes []nsf.UNID
	// touched, when set, collects the documents written since it was last
	// cleared: what the next replication round has to carry.
	touched map[nsf.UNID]struct{}
}

func (c *client) touch(u nsf.UNID) {
	if c.touched != nil {
		c.touched[u] = struct{}{}
	}
}

func (c *client) fail(op kit.Op, format string, args ...any) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf("client %d %s: %s", c.id, op.Kind, fmt.Sprintf(format, args...))
	}
}

// runFor executes ops from the client's list, wrapping around at its end,
// for the given time.
func (c *client) runFor(start time.Time, window time.Duration) {
	c.slices = kit.NewSlices(start, window, windowSlices)
	for now := time.Now(); now.Before(start.Add(window)); now = time.Now() {
		c.step(c.slices.At(now))
	}
}

func (c *client) runN(n int) {
	for i := 0; i < n; i++ {
		c.step(nil)
	}
}

// step runs the next operation and tallies it, also into sl when set.
func (c *client) step(sl *kit.Slice) {
	op := c.ops[c.pos%len(c.ops)]
	c.pos++
	c.attempted++
	d, ok := c.do(op)
	if !ok {
		return
	}
	c.lat[op.Kind].Record(int64(d))
	if sl != nil {
		sl.Ops++
		if c.point[op.Kind] {
			sl.Point.Record(int64(d))
		}
	}
}

// reset discards what the warm-up recorded.
func (c *client) reset() {
	c.lat = [kit.NumKinds]kit.Hist{}
	c.scanRows, c.batchDocs, c.attempted, c.failed, c.firstErr = 0, 0, 0, 0, nil
}

// do runs one operation and checks its answer. It returns the latency of
// the request alone and whether the operation succeeded; a failed
// operation leaves no latency sample.
func (c *client) do(op kit.Op) (time.Duration, bool) {
	switch op.Kind {
	case kit.Get:
		d := c.own.docs[int(op.Key)%len(c.own.docs)]
		t0 := time.Now()
		n, err := c.db.Get(d.unid())
		lat := time.Since(t0)
		switch {
		case err != nil:
			c.fail(op, "%v", err)
		case n.OID.Seq != d.seq || checksum(n) != d.sum:
			c.fail(op, "%s read back seq %d, acked seq %d, or a different body", d.unid(), n.OID.Seq, d.seq)
		default:
			return lat, true
		}

	case kit.ViewPage:
		start := int(op.Key) % max(1, c.viewRows-pageRows)
		t0 := time.Now()
		p, err := c.db.ViewPage(sortedView, start, pageRows)
		lat := time.Since(t0)
		if err != nil {
			c.fail(op, "%v", err)
		} else if why := c.checkPage(p, start); why != "" {
			c.fail(op, "%s", why)
		} else {
			return lat, true
		}

	case kit.Search:
		q := c.queries[int(op.Key)%len(c.queries)]
		t0 := time.Now()
		p, err := c.db.SearchPage(q, searchColumns, 0, searchLimit)
		lat := time.Since(t0)
		if err != nil {
			c.fail(op, "%v", err)
		} else if why := c.checkHits(p, q); why != "" {
			c.fail(op, "%s", why)
		} else {
			return lat, true
		}

	case kit.Scan:
		opts := wire.ScanOptions{Formula: scanFormula, Columns: scanColumns, Limit: scanLimit}
		t0 := time.Now()
		p, err := c.db.ScanPage(opts, c.cursor)
		lat := time.Since(t0)
		if err != nil {
			c.fail(op, "%v", err)
			break
		}
		for _, r := range p.Rows {
			d := c.own.byID[r.UNID]
			if d == nil || d.note.Number("Priority") <= 4 || len(r.Values) != 2 ||
				r.Values[0].Type != nsf.TypeText || r.Values[0].Text[0] != d.subject() {
				c.fail(op, "row %s does not match the stored document or the formula", r.UNID)
				return 0, false
			}
		}
		c.scanRows += len(p.Rows)
		c.cursor = p.Cursor
		if !p.More {
			c.cursor = nil
		}
		return lat, true

	case kit.Update:
		d := c.own.docs[int(op.Key)%len(c.own.docs)]
		n := d.note.Clone()
		c.edits.Mutate(n)
		t0 := time.Now()
		err := c.db.Update(n)
		lat := time.Since(t0)
		if err != nil {
			c.fail(op, "%v", err)
		} else if n.OID.Seq != d.seq+1 {
			c.fail(op, "%s acked at seq %d after seq %d", d.unid(), n.OID.Seq, d.seq)
		} else {
			d.ack(n, n.OID.Seq)
			c.touch(d.unid())
			return lat, true
		}

	case kit.Create:
		n := c.maker.next()
		t0 := time.Now()
		err := c.db.Create(n)
		lat := time.Since(t0)
		if err != nil {
			c.fail(op, "%v", err)
		} else {
			c.own.add(n, n.OID.Seq)
			c.touch(n.OID.UNID)
			return lat, true
		}

	case kit.Delete:
		i := int(op.Key) % len(c.own.docs)
		t0 := time.Now()
		err := c.db.Delete(c.own.docs[i].unid())
		lat := time.Since(t0)
		if err != nil {
			c.fail(op, "%v", err)
		} else {
			gone := c.own.remove(i).unid()
			c.ackedDeletes = append(c.ackedDeletes, gone)
			c.touch(gone)
			return lat, true
		}

	case kit.PutBatch:
		notes := make([]*nsf.Note, batchDocs)
		for i := range notes {
			notes[i] = c.maker.next()
		}
		t0 := time.Now()
		stored, err := c.db.PutBatch(notes)
		lat := time.Since(t0)
		if err != nil || stored != len(notes) {
			c.fail(op, "stored %d of %d: %v", stored, len(notes), err)
		} else {
			for _, n := range notes {
				c.own.add(n, 1)
			}
			c.batchDocs += len(notes)
			return lat, true
		}
	}
	return 0, false
}

// collates reports whether a sorts at or before b in the sorted view: by
// lower-cased subject, then by UNID.
func collates(aSubject string, aID nsf.UNID, bSubject string, bID nsf.UNID) bool {
	if c := strings.Compare(strings.ToLower(aSubject), strings.ToLower(bSubject)); c != 0 {
		return c < 0
	}
	return bytes.Compare(aID[:], bID[:]) <= 0
}

// checkPage holds a view page against the view's collation and, where the
// corpus is frozen, against the exact row window.
func (c *client) checkPage(p wire.ViewPage, start int) string {
	if want := min(pageRows, p.Total-start); len(p.Rows) != want {
		return fmt.Sprintf("page at %d of %d has %d rows, want %d", start, p.Total, len(p.Rows), want)
	}
	for i, r := range p.Rows {
		if r.IsCategory || len(r.Columns) != 2 {
			return fmt.Sprintf("row %d is not a two-column document row", start+i)
		}
		if i > 0 && !collates(p.Rows[i-1].Columns[0], p.Rows[i-1].UNID, r.Columns[0], r.UNID) {
			return fmt.Sprintf("rows %d and %d are out of collation order", start+i-1, start+i)
		}
		if c.sorted != nil {
			if want := c.sorted[start+i]; r.UNID != want.unid() || r.Columns[0] != want.subject() {
				return fmt.Sprintf("row %d is %s, the sorted model has %s", start+i, r.UNID, want.unid())
			}
		} else if d := c.own.byID[r.UNID]; d != nil && r.Columns[0] != d.subject() {
			return fmt.Sprintf("row %d shows a subject its document does not have", start+i)
		}
	}
	return ""
}

// checkHits holds a page of search hits against the model: a hit on a
// document the client knows carries that document's subject, and the
// document does match both query terms.
func (c *client) checkHits(p wire.SearchPage, query string) string {
	if len(p.Hits) != min(searchLimit, p.Total) {
		return fmt.Sprintf("%d hits on a page of %d with %d in total", len(p.Hits), searchLimit, p.Total)
	}
	terms := strings.Fields(query)
	for _, h := range p.Hits {
		d := c.own.byID[h.UNID]
		if d == nil {
			continue // the other client's document
		}
		if len(h.Values) != 1 || h.Values[0].Type != nsf.TypeText || h.Values[0].Text[0] != d.subject() {
			return fmt.Sprintf("hit %s carries a subject its document does not have", h.UNID)
		}
		if !strings.EqualFold(d.note.Text("From"), terms[0]) || !strings.EqualFold(d.note.Text("Category"), terms[1]) {
			return fmt.Sprintf("hit %s does not match %q", h.UNID, query)
		}
	}
	return ""
}

// sortedModel orders a frozen corpus as the sorted view does.
func sortedModel(m *model) []*doc {
	out := append([]*doc(nil), m.docs...)
	sort.Slice(out, func(i, j int) bool {
		return collates(out[i].subject(), out[i].unid(), out[j].subject(), out[j].unid()) &&
			out[i] != out[j]
	})
	return out
}
