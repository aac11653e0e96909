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
	// its deadline, and Fetch: a server passes the request's. Nil means no
	// deadline.
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
// The scan reads headers, plus what sel.Keep keeps with a formula.
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
	next, err := scanSelected(cmp.Or(p.Ctx, context.Background()), p.DB, since, sel, keep, func(hdr *nsf.Note, _ []byte) error {
		out = append(out, SummaryOf(hdr))
		return nil
	})
	if err != nil {
		return nil, since, err
	}
	return out, next, nil
}

// scanSelected calls fn with the header and the record of every note of db
// changed since the cursor, except replication bookkeeping, until fn
// returns an error, and returns the next cursor. Records carry the items
// keep accepts (nil: the whole stored record); both are valid only during
// fn's call. Deletion stubs bypass the selection (deletes always
// propagate); a document outside it is handed over as its selection stub.
// Each header is decoded into one reused note; a live document is decoded
// only to evaluate sel, and then only sel's projection, into another
// reused note and arena.
func scanSelected(ctx context.Context, db *core.Database, since store.Cursor, sel *formula.Formula, keep func([]byte, nsf.ItemFlags) bool, fn func(hdr *nsf.Note, rec []byte) error) (store.Cursor, error) {
	var (
		hdr, proj nsf.Note
		arena     nsf.Arena
		selKeep   func([]byte, nsf.ItemFlags) bool
		stub      []byte
		ferr      error
	)
	if sel != nil {
		selKeep = sel.Keep()
	}
	next, err := db.ScanSince(ctx, since, keep, func(rec []byte) bool {
		if ferr = nsf.DecodeHeader(rec, &hdr); ferr != nil {
			return false
		}
		if hdr.Class == nsf.ClassReplFormula {
			return true
		}
		if sel != nil && !hdr.IsStub() && hdr.Class == nsf.ClassDocument {
			arena.Reset()
			if ferr = nsf.DecodeNoteInto(&proj, &arena, rec, selKeep); ferr != nil {
				return false
			}
			var ok bool
			if ok, ferr = sel.Selects(&proj, nil); ferr != nil {
				return false
			}
			if !ok {
				hdr = *SelectionStub(&hdr)
				stub = nsf.AppendNote(stub[:0], &hdr)
				rec = stub
			}
		}
		ferr = fn(&hdr, rec)
		return ferr == nil
	})
	return next, cmp.Or(err, ferr)
}

// fetchCheckEvery is how many notes Fetch reads between checks of its
// context.
const fetchCheckEvery = 256

// Fetch implements Peer: the fetch a source serves, which ships each
// record as it is stored, read into one buffer the fetch reuses. A note
// that vanished since the summary scan is skipped; a record that does not
// decode is an error, as is one fn returns. Ctx is checked every
// fetchCheckEvery notes.
func (p *LocalPeer) Fetch(unids []nsf.UNID, fn func(rec []byte) error) error {
	ctx := cmp.Or(p.Ctx, context.Background())
	var buf []byte
	for i, u := range unids {
		if i%fetchCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		rec, err := p.DB.RawRecord(buf[:0], u, nil)
		buf = rec
		if errors.Is(err, core.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Apply implements Peer: each record is decoded, and so validated, before
// ApplyNote's rules run (see applier).
func (p *LocalPeer) Apply(recs [][]byte) (ApplyStats, error) {
	var st ApplyStats
	apply := applier(p.DB, p.Opts)
	for _, rec := range recs {
		s, err := apply(rec)
		if err != nil {
			return st, err
		}
		st.Add(s)
	}
	return st, nil
}
