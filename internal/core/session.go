package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/acl"
	"repro/internal/formula"
	"repro/internal/ft"
	"repro/internal/nsf"
	"repro/internal/store"
	"repro/internal/view"
)

// Session is a user's authenticated handle on a database. All reads filter
// by the ACL and Reader items; all writes check edit rights.
type Session struct {
	db   *Database
	user string
	id   *acl.Identity
}

// Session opens a session for user, resolving their access level once.
func (db *Database) Session(user string) *Session {
	db.mu.RLock()
	a := db.acl
	db.mu.RUnlock()
	return &Session{db: db, user: user, id: a.Resolve(user, db.resolver())}
}

// resolver adapts the possibly-nil directory to the ACL's GroupResolver.
func (db *Database) resolver() acl.GroupResolver {
	if db.dirs == nil {
		return nil
	}
	return db.dirs
}

// User returns the session's user name.
func (s *Session) User() string { return s.user }

// Identity returns the resolved access identity.
func (s *Session) Identity() *acl.Identity { return s.id }

// Database returns the underlying database.
func (s *Session) Database() *Database { return s.db }

// Create stores a new document. The note's UNID may be pre-assigned (e.g.
// by NewNote); Created/Modified and the OID are stamped here. An Authors
// item listing the creator is added automatically for Author-level users,
// mirroring the Notes convention that authors can edit their own documents.
func (s *Session) Create(n *nsf.Note) error {
	if !s.id.CanCreate() {
		return fmt.Errorf("%w: %s may not create documents", ErrAccessDenied, s.user)
	}
	if n.Class != nsf.ClassDocument {
		return fmt.Errorf("core: Create only stores documents; use AddView/SaveACL for design")
	}
	if n.OID.UNID.IsZero() {
		n.OID.UNID = nsf.NewUNID()
	}
	if s.id.Level == acl.Author && len(n.Authors()) == 0 {
		n.SetWithFlags("$Authors", nsf.TextValue(s.user), nsf.FlagAuthors|nsf.FlagSummary)
	}
	return s.db.putVersioned(n, func(old *nsf.Note) error {
		if old != nil {
			return fmt.Errorf("core: document %s already exists", old.OID.UNID)
		}
		return nil
	})
}

// Get returns the document with the given UNID, subject to read access.
// Deletion stubs read as not found. It decodes the stored record
// AppendRecord reads.
func (s *Session) Get(unid nsf.UNID) (*nsf.Note, error) {
	var sc RecordScratch
	rec, err := s.AppendRecord(nil, unid, &sc)
	if err != nil {
		return nil, err
	}
	return nsf.DecodeNote(rec)
}

// RecordScratch is what a record read (AppendRecord, the search join)
// decodes a record's header and access items into. The zero value is
// ready; one goroutine reuses one across reads, so a read allocates nothing
// for its checks.
type RecordScratch struct {
	note  nsf.Note
	arena nsf.Arena
}

// accessItems keeps a record's Readers and Authors items: with the header,
// all the stub check and CanRead read.
var accessItems = (*formula.Formula)(nil).Keep()

// AppendRecord appends the stored record of the document unid names to dst
// (nsf.EncodeNote's form, as the store holds it) subject to read access,
// as Get does: a missing document or a deletion stub is ErrNotFound, and
// one the session may not read is ErrAccessDenied, with Get's error text.
// Only the header and the access items are decoded, into sc; on an error
// dst comes back as it was passed.
func (s *Session) AppendRecord(dst []byte, unid nsf.UNID, sc *RecordScratch) ([]byte, error) {
	start := len(dst)
	dst, err := s.db.st.AppendRecord(dst, unid)
	if err != nil {
		return dst, err
	}
	sc.arena.Reset()
	if err := nsf.DecodeNoteInto(&sc.note, &sc.arena, dst[start:], accessItems); err != nil {
		return dst[:start], err
	}
	if sc.note.IsStub() {
		return dst[:start], ErrNotFound
	}
	if !s.id.CanRead(&sc.note) {
		return dst[:start], fmt.Errorf("%w: %s may not read %s", ErrAccessDenied, s.user, unid)
	}
	return dst, nil
}

// Update stores a modified document, advancing its version. The caller must
// pass the full note (as returned by Get, then mutated). A stub reads as
// not found, as in Get: an update that arrives after the delete must not
// bring the document back.
func (s *Session) Update(n *nsf.Note) error {
	return s.db.putVersioned(n, func(old *nsf.Note) error { return s.canEdit(old, n.OID.UNID) })
}

// canEdit is the check Update and PutBatch make of the version old they
// replace: none, or a stub, is ErrNotFound.
func (s *Session) canEdit(old *nsf.Note, unid nsf.UNID) error {
	if old == nil || old.IsStub() {
		return ErrNotFound
	}
	if !s.id.CanEdit(old) {
		return fmt.Errorf("%w: %s may not edit %s", ErrAccessDenied, s.user, unid)
	}
	return nil
}

// Delete replaces the document with a deletion stub so the delete
// replicates. The stub keeps the note's identity and advances its version.
func (s *Session) Delete(unid nsf.UNID) error {
	stub := &nsf.Note{OID: nsf.OID{UNID: unid}}
	return s.db.putVersioned(stub, func(old *nsf.Note) error {
		if old == nil {
			return ErrNotFound
		}
		if !s.id.CanDelete(old) {
			return fmt.Errorf("%w: %s may not delete %s", ErrAccessDenied, s.user, unid)
		}
		stub.Class, stub.Flags = old.Class, old.Flags|nsf.FlagDeleted
		return nil
	})
}

// putBatchWaitStride bounds how many documents accumulate in the forming
// group-commit batch before PutBatch waits one out, so a huge batch cannot
// grow an unbounded in-memory log tail.
const putBatchWaitStride = 256

// PutBatch stores documents create-or-update in input order, amortizing the
// commit: every document is applied and its WAL record joins the forming
// group-commit batch, and durability is awaited once at the end instead of
// per document (batches flush in order, so waiting on the last ticket
// covers them all — including any earlier write error, which poisons the
// group). Access is checked per document: CanCreate for new UNIDs, CanEdit
// for existing ones; a deleted document's UNID stops the batch with
// ErrNotFound, as Update does. Zero UNIDs are assigned; Author-level users
// get the same automatic $Authors item as Create.
//
// It returns how many documents were stored: on error, exactly the first
// `applied` documents were stored and are durable.
func (s *Session) PutBatch(notes []*nsf.Note) (applied int, err error) {
	return s.PutBatchCtx(context.Background(), notes)
}

// PutBatchCtx is PutBatch with cooperative cancellation: the per-document
// loop stops at a spent deadline, and — exactly like a mid-batch error —
// the applied prefix is made durable before returning, so the caller's
// cursor accounting stays truthful and a re-sent batch dedups cleanly.
func (s *Session) PutBatchCtx(ctx context.Context, notes []*nsf.Note) (applied int, err error) {
	var last store.Commit
	for i, n := range notes {
		if err = ctx.Err(); err != nil {
			break
		}
		if n.Class != nsf.ClassDocument {
			err = fmt.Errorf("core: PutBatch only stores documents (document %d)", i)
			break
		}
		if n.OID.UNID.IsZero() {
			n.OID.UNID = nsf.NewUNID()
		}
		c, perr := s.db.putVersionedAsync(n, func(old *nsf.Note) error {
			if old != nil {
				// A deleted document stays deleted, as Update leaves it.
				return s.canEdit(old, n.OID.UNID)
			}
			if !s.id.CanCreate() {
				return fmt.Errorf("%w: %s may not create documents", ErrAccessDenied, s.user)
			}
			if s.id.Level == acl.Author && len(n.Authors()) == 0 {
				n.SetWithFlags("$Authors", nsf.TextValue(s.user), nsf.FlagAuthors|nsf.FlagSummary)
			}
			return nil
		})
		if perr != nil {
			err = fmt.Errorf("core: PutBatch document %d: %w", i, perr)
			break
		}
		last = c
		applied++
		if applied%putBatchWaitStride == 0 {
			if werr := last.Wait(); werr != nil {
				return applied, werr
			}
		}
	}
	// Even on a mid-batch error the applied prefix must be durable before
	// we report it as stored.
	if werr := last.Wait(); werr != nil {
		return applied, werr
	}
	return applied, err
}

// Rows renders the named view for this session: category rows plus the
// entries the user may read (access lists enforced).
func (s *Session) Rows(viewName string) ([]view.Row, error) {
	ix, ok := s.db.View(viewName)
	if !ok {
		return nil, fmt.Errorf("core: no view %q", viewName)
	}
	if s.id.Level < acl.Reader {
		return nil, fmt.Errorf("%w: %s may not read views", ErrAccessDenied, s.user)
	}
	return ix.Rows(s.entryReadable), nil
}

// RowsPage renders one page of the named view — rows[start : start+limit]
// of the same access-filtered rendering Rows produces, minus the synthetic
// grand-total row so row indices stay stable while documents arrive — and
// reports the total row count. It backs the paginated wire read path;
// limit <= 0 means "to the end".
func (s *Session) RowsPage(viewName string, start, limit int) ([]view.Row, int, error) {
	return s.RowsPageCtx(context.Background(), viewName, start, limit)
}

// RowsPageCtx is RowsPage with cooperative cancellation: the underlying
// row walk checks the deadline periodically, so a page requested by a
// caller that has already given up stops rendering mid-walk.
func (s *Session) RowsPageCtx(ctx context.Context, viewName string, start, limit int) ([]view.Row, int, error) {
	ix, ok := s.db.View(viewName)
	if !ok {
		return nil, 0, fmt.Errorf("core: no view %q", viewName)
	}
	if s.id.Level < acl.Reader {
		return nil, 0, fmt.Errorf("%w: %s may not read views", ErrAccessDenied, s.user)
	}
	return ix.RowsRangeCtx(ctx, s.entryReadable, start, limit)
}

// entryReadable applies the entry's access list without loading the note.
func (s *Session) entryReadable(e *view.Entry) bool { return s.id.Admits(e.Access) }

// Search runs a full-text query, filtering hits by read access. A refresh
// barrier first waits for index maintenance to catch up, so the results
// reflect every change committed before the call.
func (s *Session) Search(query string) ([]ft.Result, error) {
	return s.SearchCtx(context.Background(), query)
}

// SearchCtx is Search with cooperative cancellation: query evaluation
// stops at a spent deadline instead of scoring postings for a caller that
// has already given up.
func (s *Session) SearchCtx(ctx context.Context, query string) ([]ft.Result, error) {
	s.db.Refresh()
	fti := s.db.FullText()
	if fti == nil {
		return nil, errors.New("core: full-text index not enabled")
	}
	if s.id.Level < acl.Reader {
		return nil, fmt.Errorf("%w: %s may not search", ErrAccessDenied, s.user)
	}
	hits, err := fti.SearchCtx(ctx, query)
	if err != nil {
		return nil, err
	}
	// Filter by the access list captured at indexing time — the same check
	// CanRead makes on a loaded note, without a store load per hit.
	out := hits[:0]
	for _, h := range hits {
		if s.id.Admits(h.Access) {
			out = append(out, h)
		}
	}
	return out, nil
}

// All visits every readable document (not stubs, not design notes).
func (s *Session) All(fn func(*nsf.Note) bool) error { return s.ScanFrom(0, nil, fn) }

// ScanFrom visits readable documents in NoteID order, starting strictly
// after the given NoteID (0 scans from the beginning), optionally filtered
// by a selection formula evaluated as this session's user. It is the
// NSFSearch-style primitive the wire scan op pages with: the last NoteID a
// page delivered is a resumable cursor into this physical database. Stubs,
// design notes, documents the user may not read, and documents the formula
// deselects are skipped without being counted.
func (s *Session) ScanFrom(after nsf.NoteID, sel *formula.Formula, fn func(*nsf.Note) bool) error {
	return s.ScanFromCtx(context.Background(), after, sel, nil, fn)
}

// ScanFromCtx is ScanFrom with cooperative cancellation, checked both in
// the store's batch loop and per candidate document here — a scan whose
// formula deselects everything must still notice a spent deadline, even
// though it never fills a page. A non-nil items projects each document:
// the note fn sees carries those items and what sel.Keep keeps (the items
// sel reads or writes, the Readers/Authors items CanRead reads), so
// selection and access decide exactly as on the whole note. Nil items
// hands fn whole notes. Each note is fn's to keep.
func (s *Session) ScanFromCtx(ctx context.Context, after nsf.NoteID, sel *formula.Formula, items []string, fn func(*nsf.Note) bool) error {
	return s.scan(ctx, after, sel, items, nsf.DecodeNote, func(n *nsf.Note, _ []byte) bool { return fn(n) })
}

// ScanRow is a document a scan selected, lent to the callback: both fields
// are reused for the next row and valid only during the call.
type ScanRow struct {
	// Note is the document as the selection formula left it: its header,
	// the items sel.Keep keeps, and whatever the formula's FIELD and
	// DEFAULT statements assigned.
	Note *nsf.Note
	// Record is the stored document projected to the scan's items and
	// sel.Keep's, in nsf encoding: values the formula does not name are
	// copied from here as they are stored.
	Record []byte
}

// ScanRowsCtx is ScanFromCtx lending fn each row instead of handing it a
// note: only the items the formula and the access check read are decoded,
// into one note reused for every document the walk visits, so a scan
// whose formula reads numbers allocates nothing per note.
func (s *Session) ScanRowsCtx(ctx context.Context, after nsf.NoteID, sel *formula.Formula, items []string, fn func(ScanRow) bool) error {
	var scratch nsf.Note
	var arena nsf.Arena
	evalKeep := sel.Keep()
	return s.scan(ctx, after, sel, items, func(rec []byte) (*nsf.Note, error) {
		arena.Reset()
		return &scratch, nsf.DecodeNoteInto(&scratch, &arena, rec, evalKeep)
	}, func(n *nsf.Note, rec []byte) bool { return fn(ScanRow{Note: n, Record: rec}) })
}

// scan is the one session scan behind ScanFromCtx and ScanRowsCtx: the
// store's record walk, projected to items and what sel.Keep keeps (nil
// items: whole records), each record decoded by decode, filtered to the
// readable documents sel selects, and handed to fn with its record.
func (s *Session) scan(ctx context.Context, after nsf.NoteID, sel *formula.Formula, items []string,
	decode func(rec []byte) (*nsf.Note, error), fn func(n *nsf.Note, rec []byte) bool) error {
	if s.id.Level < acl.Reader {
		return fmt.Errorf("%w: %s may not read", ErrAccessDenied, s.user)
	}
	var fctx *formula.Context
	var keep func([]byte, nsf.ItemFlags) bool
	if sel != nil {
		fctx = s.db.evalContext(s.user)
	}
	if items != nil {
		keep = sel.Keep(items...)
	}
	var evalErr error
	err := s.db.st.ScanRecords(ctx, after, keep, func(rec []byte) bool {
		if cerr := ctx.Err(); cerr != nil {
			evalErr = cerr
			return false
		}
		n, derr := decode(rec)
		if derr != nil {
			evalErr = derr
			return false
		}
		if n.IsStub() || n.Class != nsf.ClassDocument || !s.id.CanRead(n) {
			return true
		}
		if sel != nil {
			ok, serr := sel.Selects(n, fctx)
			if serr != nil {
				evalErr = serr
				return false
			}
			if !ok {
				return true
			}
		}
		return fn(n, rec)
	})
	if err == nil {
		err = evalErr
	}
	return err
}

// SearchJoined runs a full-text query and joins the named summary columns
// onto each hit, so a hit list renders without a per-hit Get round trip:
// SearchPageCtx over the whole hit list.
func (s *Session) SearchJoined(query string, columns []string) ([]ft.HitSummary, error) {
	return s.SearchJoinedCtx(context.Background(), query, columns)
}

// SearchJoinedCtx is SearchJoined with cooperative cancellation.
func (s *Session) SearchJoinedCtx(ctx context.Context, query string, columns []string) ([]ft.HitSummary, error) {
	hits, _, _, err := s.SearchPageCtx(ctx, query, columns, 0, 0)
	return hits, err
}

// SearchPageCtx is SearchRowsCtx collecting its rows: each column is
// decoded from the hit's record into a value the caller keeps (a column
// the document lacks is the zero Value).
func (s *Session) SearchPageCtx(ctx context.Context, query string, columns []string, start, limit int) (hits []ft.HitSummary, total, next int, err error) {
	names := make([][]byte, len(columns))
	for i, c := range columns {
		names[i] = []byte(c)
	}
	stored := make([][]byte, len(columns))
	var derr error
	total, next, err = s.SearchRowsCtx(ctx, query, columns, start, limit, func(r SearchRow) bool {
		h := ft.HitSummary{Result: r.Result, Pos: r.Pos}
		if r.Record != nil {
			h.Values = make([]nsf.Value, len(columns))
			derr = nsf.ItemValues(r.Record, names, stored)
			for i, b := range stored {
				if b != nil && derr == nil {
					h.Values[i], derr = nsf.DecodeValue(b)
				}
			}
		}
		hits = append(hits, h)
		return derr == nil
	})
	if err == nil {
		err = derr
	}
	return hits, total, next, err
}

// SearchRow is a search hit SearchRowsCtx joined, lent to the callback:
// Note and Record are reused for the next row and valid only during the
// call. Without columns no document is read, and both are nil.
type SearchRow struct {
	ft.Result
	// Pos is the hit's position in the access-filtered hit list.
	Pos int
	// Note is the document's header and its Readers and Authors items: what
	// the stub check and CanRead read.
	Note *nsf.Note
	// Record is the stored document projected to the columns and the
	// access items, in nsf encoding: a column is its first item of that
	// name, copied as stored.
	Record []byte
}

// SearchRowsCtx runs a full-text query and joins one page of its hits:
// from position start of the access-filtered hit list, in rank order,
// lending fn each hit until limit have joined (limit <= 0: to the end) or
// fn returns false, which stops the join before that hit. Each hit's
// document is read as its stored record projected to the columns
// (store.RecordsByUNID), never decoded whole; a hit whose document was
// deleted, stubbed or made unreadable since the refresh barrier is
// skipped and not counted in total. Hits past the last one examined are
// counted. next is the position of the first hit not used. The deadline
// is checked by the query evaluation and again before each store hold.
func (s *Session) SearchRowsCtx(ctx context.Context, query string, columns []string, start, limit int, fn func(SearchRow) bool) (total, next int, err error) {
	all, err := s.SearchCtx(ctx, query)
	if err != nil {
		return 0, 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	next = min(max(start, 0), len(all))
	if limit <= 0 {
		limit = len(all)
	}
	if len(columns) == 0 {
		for ; next < len(all) && limit > 0 && fn(SearchRow{Result: all[next], Pos: next}); next++ {
			limit--
		}
		return len(all), next, nil
	}
	var sc RecordScratch
	keep := (*formula.Formula)(nil).Keep(columns...)
	skipped, stopped := 0, false
	var derr error
	// One lookup per window of as many hits as the page still wants; a
	// window that skipped hits leaves the page short, and the next one
	// fills it.
	for !stopped && next < len(all) && limit > 0 {
		from := next
		err := s.db.st.RecordsByUNID(ctx, min(limit, len(all)-from), func(i int) nsf.UNID { return all[from+i].UNID }, keep, func(i int, rec []byte) bool {
			if rec != nil {
				sc.arena.Reset()
				if derr = nsf.DecodeNoteInto(&sc.note, &sc.arena, rec, accessItems); derr != nil {
					return false
				}
			}
			if rec == nil || sc.note.IsStub() || !s.id.CanRead(&sc.note) {
				skipped++
			} else if fn(SearchRow{Result: all[from+i], Pos: from + i, Note: &sc.note, Record: rec}) {
				limit--
			} else {
				stopped = true
				return false
			}
			next++
			return true
		})
		if err == nil {
			err = derr
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return len(all) - skipped, next, nil
}
