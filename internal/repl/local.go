package repl

import (
	"cmp"
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/formula"
	"repro/internal/nsf"
	"repro/internal/store"
)

// LocalPeer adapts an open database to the Peer interface, evaluating
// selective-replication formulas source-side and applying with the given
// options.
type LocalPeer struct {
	DB   *core.Database
	Opts ApplyOptions
	// Ctx bounds Summaries' scan, which stops within one store batch of
	// its deadline, and FetchRecords: a server passes the request's. Nil
	// means no deadline.
	Ctx context.Context
}

var _ Peer = (*LocalPeer)(nil)

// ReplicaID implements Peer.
func (p *LocalPeer) ReplicaID() (nsf.ReplicaID, error) {
	return p.DB.ReplicaID(), nil
}

// Summaries implements Peer: version summaries of notes changed after
// since. Replication-bookkeeping notes never replicate; deletion stubs
// bypass the selective formula (deletes always propagate); documents
// outside the selection are advertised as selection stubs rather than
// silently withheld. The formula compile is memoized across sessions
// (CompileSelection), and a bad source returns a typed *FormulaError.
// Notes are decoded to what sel.Keep keeps, or to headers without a formula.
func (p *LocalPeer) Summaries(since store.Cursor, formulaSrc string) ([]Summary, store.Cursor, error) {
	sel, err := CompileSelection(formulaSrc)
	if err != nil {
		return nil, since, err
	}
	keep := nsf.KeepItems(nil, 0)
	if sel != nil {
		keep = sel.Keep()
	}
	var out []Summary
	next, err := scanSelected(cmp.Or(p.Ctx, context.Background()), p.DB, since, sel, keep, func(n *nsf.Note) { out = append(out, SummaryOf(n)) })
	if err != nil {
		return nil, since, err
	}
	return out, next, nil
}

// scanSelected hands fn every note of db changed since the cursor, except
// replication bookkeeping, and returns the next cursor. Deletion stubs
// bypass the selection (deletes always propagate); a document outside it
// is handed over as its selection stub. Notes carry the items keep accepts
// (nil: all), which must include every item sel reads.
func scanSelected(ctx context.Context, db *core.Database, since store.Cursor, sel *formula.Formula, keep func([]byte, nsf.ItemFlags) bool, fn func(*nsf.Note)) (store.Cursor, error) {
	var evalErr error
	next, err := db.ScanSince(ctx, since, keep, func(n *nsf.Note) bool {
		if n.Class == nsf.ClassReplFormula {
			return true
		}
		if sel != nil && !n.IsStub() && n.Class == nsf.ClassDocument {
			ok, err := sel.Selects(n, nil)
			if err != nil {
				evalErr = err
				return false
			}
			if !ok {
				n = SelectionStub(n)
			}
		}
		fn(n)
		return true
	})
	if err == nil {
		err = evalErr
	}
	return next, err
}

// Fetch implements Peer: the notes FetchRecords reads, decoded.
func (p *LocalPeer) Fetch(unids []nsf.UNID) ([]*nsf.Note, error) {
	out := make([]*nsf.Note, 0, len(unids))
	_, err := p.FetchRecords(nil, unids, func(rec []byte) error {
		n, err := nsf.DecodeNote(rec)
		if err == nil {
			out = append(out, n)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fetchCheckEvery is how many notes FetchRecords reads between checks of
// its context.
const fetchCheckEvery = 256

// FetchRecords calls fn, in order, with the stored record (nsf.AppendNote's
// form) of each note unids names, skipping a note that vanished since the
// summary scan: the fetch a source serves, which ships the records as they
// are stored. Each record is read into buf, which is returned grown for
// the next call to reuse, and is valid only during fn's call. A record
// that does not decode is an error, as is one fn returns; Ctx is checked
// every fetchCheckEvery notes.
func (p *LocalPeer) FetchRecords(buf []byte, unids []nsf.UNID, fn func(rec []byte) error) ([]byte, error) {
	ctx := cmp.Or(p.Ctx, context.Background())
	for i, u := range unids {
		if i%fetchCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return buf, err
			}
		}
		rec, err := p.DB.RawRecord(buf[:0], u, nil)
		buf = rec
		if errors.Is(err, core.ErrNotFound) {
			continue
		}
		if err != nil {
			return buf, err
		}
		if err := fn(rec); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// Apply implements Peer.
func (p *LocalPeer) Apply(notes []*nsf.Note) (ApplyStats, error) {
	var st ApplyStats
	for _, n := range notes {
		s, err := ApplyNote(p.DB, n, p.Opts)
		if err != nil {
			return st, err
		}
		st.Add(s)
	}
	return st, nil
}
