package repl

import (
	"errors"
	"strings"

	"repro/internal/core"
	"repro/internal/nsf"
)

// ApplyOptions tune conflict handling on the receiving side.
type ApplyOptions struct {
	// FieldMerge resolves conflicts whose edits touched disjoint item sets
	// by merging instead of creating a conflict document.
	FieldMerge bool
}

// ApplyNote applies one incoming note to db under the Notes replication
// rules, returning what happened. It is the receiving half of replication
// and is deterministic: applying the same note twice, or on two replicas
// holding the same state, yields identical results.
//
// The version rules read only the local copy's stored header
// (Database.RawHeader); the whole local note is read only for an
// equal-sequence conflict, which compares items. incoming is stored as it
// is and never modified. It is stored only over the version the rules were
// applied to (Database.RawPutIf): when a local write replaces that version
// first, the rules are applied again to the one it stored.
//
// incoming is not kept past the return, so a caller may decode the next
// note into it: the store encodes it synchronously (RawPut copies only its
// header), a conflict or merge stores clones, and the design and ACL
// parsers a replicated design note goes through (acl.FromNote and the
// view definition reader) keep only strings, never a value slice.
func ApplyNote(db *core.Database, incoming *nsf.Note, opts ApplyOptions) (ApplyStats, error) {
	for {
		st, err := applyNote(db, incoming, opts)
		if !errors.Is(err, core.ErrChanged) {
			return st, err
		}
	}
}

// applier returns a function that applies one stored record (the
// nsf.AppendNote form a Peer carries) to db with ApplyNote: the record is
// decoded, and so validated, into one note and arena that every call
// reuses, its names and text substrings of one copy of the record.
func applier(db *core.Database, opts ApplyOptions) func(rec []byte) (ApplyStats, error) {
	var n nsf.Note
	var a nsf.Arena
	return func(rec []byte) (ApplyStats, error) {
		a.Reset()
		if err := nsf.DecodeNoteIntoSrc(&n, &a, rec, string(rec)); err != nil {
			return ApplyStats{}, err
		}
		return ApplyNote(db, &n, opts)
	}
}

// applyNote is one attempt of ApplyNote: core.ErrChanged means a local
// write replaced the version it decided on, and nothing was stored.
func applyNote(db *core.Database, incoming *nsf.Note, opts ApplyOptions) (ApplyStats, error) {
	var st ApplyStats
	local, err := db.RawHeader(incoming.OID.UNID)
	if errors.Is(err, core.ErrNotFound) {
		// New to this replica. Stubs are stored too: the deletion must keep
		// propagating to replicas that still hold the document.
		if err := db.RawPutIf(incoming, &local); err != nil {
			return st, err
		}
		if incoming.IsStub() {
			st.Deleted++
		} else {
			st.Added++
		}
		return st, nil
	}
	if err != nil {
		return st, err
	}
	if local.OID == incoming.OID {
		// A selection stub meeting the live version it shadows: the stub was
		// materialized because a link's formula withheld this exact version,
		// so the live copy resurrects the content without a version bump.
		if local.IsSelStub() && !incoming.IsStub() {
			if err := db.RawPutIf(incoming, &local); err != nil {
				return st, err
			}
			st.Added++
			return st, nil
		}
		st.Skipped++
		return st, nil
	}
	// Deletions win regardless of sequence numbers: a live version with the
	// same UNID racing a stub is by definition a concurrent edit of a
	// deleted document, and Notes' "deletions win" rule discards it. (A
	// legitimately recreated document would carry a fresh UNID.)
	//
	// Selection stubs are the exception: they stand in for a version a
	// formula withheld, not a deletion, so they carry no deletion authority
	// and the plain OID comparison decides — a strictly newer live version
	// (the document re-entering the selection) resurrects the document, and
	// a stale selection stub never kills a newer live copy.
	if incoming.IsStub() != local.IsStub() {
		stub := incoming
		if local.IsStub() {
			stub = &local
		}
		if !stub.IsSelStub() {
			if incoming.IsStub() {
				if err := db.RawPutIf(incoming, &local); err != nil {
					return st, err
				}
				st.Deleted++
			} else {
				st.Skipped++ // the local stub stands
			}
			return st, nil
		}
		if incoming.OID.Newer(local.OID) {
			if err := db.RawPutIf(incoming, &local); err != nil {
				return st, err
			}
			if incoming.IsStub() {
				st.Deleted++
			} else {
				st.Added++ // resurrection: the document re-entered the selection
			}
		} else {
			st.Skipped++
		}
		return st, nil
	}
	switch {
	case incoming.OID.Seq == local.OID.Seq:
		// Same edit count on both sides: a true concurrent-edit conflict,
		// which compares items and so needs the whole local note.
		full, err := db.RawGet(incoming.OID.UNID)
		if errors.Is(err, core.ErrNotFound) || err == nil && (full.OID != local.OID || full.Flags != local.Flags) {
			return st, core.ErrChanged // replaced since its header was read
		}
		if err != nil {
			return st, err
		}
		return applyConflict(db, full, incoming, opts)
	case incoming.OID.Newer(local.OID):
		if err := db.RawPutIf(incoming, &local); err != nil {
			return st, err
		}
		if incoming.IsStub() && !local.IsStub() {
			st.Deleted++
		} else {
			st.Updated++
		}
		return st, nil
	default:
		// Local version is strictly newer; the push direction handles it.
		st.Skipped++
		return st, nil
	}
}

// applyConflict resolves an equal-sequence conflict between the local and
// incoming versions.
func applyConflict(db *core.Database, local, incoming *nsf.Note, opts ApplyOptions) (ApplyStats, error) {
	var st ApplyStats
	winner, loser := local, incoming
	if incoming.OID.Newer(local.OID) {
		winner, loser = incoming, local
	}
	// Deletion wins its conflicts outright, regardless of sequence time: no
	// conflict document is made for a delete-vs-edit race (the edit is
	// simply lost, as in Notes with "deletions win").
	if winner.IsStub() || loser.IsStub() {
		stub := winner
		if loser.IsStub() {
			stub = loser
		}
		if stub == local {
			st.Skipped++
			return st, nil
		}
		if err := db.RawPutIf(stub, local); err != nil {
			return st, err
		}
		st.Deleted++
		return st, nil
	}
	// If the winner already carries the loser's changes (it is a merge the
	// loser's edit already flowed into, or the two edits were identical),
	// there is nothing to preserve: accept the winner. This keeps replicas
	// that meet a merged note and a raw loser from re-detecting a conflict.
	if loserSubsumed(winner, loser) {
		if winner != local {
			if err := db.RawPutIf(winner, local); err != nil {
				return st, err
			}
			st.Updated++
		} else {
			st.Skipped++
		}
		return st, nil
	}
	if opts.FieldMerge {
		if merged, ok := mergeDisjoint(winner, loser); ok {
			if err := db.RawPutIf(merged, local); err != nil {
				return st, err
			}
			st.Merged++
			return st, nil
		}
	}
	// Keep the winner as the main document and preserve the loser as a
	// conflict response document with a deterministic UNID.
	if winner != local {
		if err := db.RawPutIf(winner, local); err != nil {
			return st, err
		}
	}
	conflict := loser.Clone()
	conflict.ID = 0
	conflict.OID = nsf.OID{
		UNID:    conflictUNID(loser.OID),
		Seq:     1,
		SeqTime: loser.OID.SeqTime,
	}
	conflict.Flags |= nsf.FlagConflict
	conflict.SetWithFlags("$Conflict", nsf.TextValue("1"), nsf.FlagSummary)
	conflict.SetWithFlags("$Ref", nsf.TextValue(winner.OID.UNID.String()), nsf.FlagSummary)
	if err := db.RawPut(conflict); err != nil {
		return st, err
	}
	st.Conflicts++
	return st, nil
}

// mergeDisjoint merges two conflicting versions when the item sets they
// changed in their final edits are disjoint. The merge is deterministic
// (independent of which replica performs it): content is the winner's items
// plus the loser's changed items, and the merged OID advances the sequence
// time past both inputs while keeping the shared sequence number.
func mergeDisjoint(winner, loser *nsf.Note) (*nsf.Note, bool) {
	wChanged := changedItemSet(winner)
	lChanged := changedItemSet(loser)
	for name := range lChanged {
		if wChanged[name] {
			return nil, false
		}
	}
	merged := winner.Clone()
	merged.ID = 0
	for _, it := range loser.Items {
		if lChanged[strings.ToLower(it.Name)] {
			c := it.Clone()
			merged.Remove(c.Name)
			merged.Items = append(merged.Items, c)
		}
	}
	// Items removed by the loser's edit: absent from loser but carrying a
	// stale revision in the winner. Without per-item tombstones removals
	// are not distinguishable from "unchanged", so removals only merge when
	// they were the winner's; the loser's removals are overridden by the
	// winner's copy. This asymmetry is deterministic, which is what
	// convergence needs.
	maxTime := winner.OID.SeqTime
	if loser.OID.SeqTime > maxTime {
		maxTime = loser.OID.SeqTime
	}
	merged.OID.SeqTime = maxTime + 1
	return merged, true
}

// loserSubsumed reports whether every item changed by the loser's edit is
// already present in the winner with the same value.
func loserSubsumed(winner, loser *nsf.Note) bool {
	for _, it := range loser.Items {
		if it.Rev != loser.OID.Seq {
			continue
		}
		wIt, ok := winner.Item(it.Name)
		if !ok || !wIt.Value.Equal(it.Value) {
			return false
		}
	}
	return true
}

// changedItemSet returns the lower-cased names of items whose revision
// matches the note's current sequence number — i.e. the items touched by
// the edit that created this version.
func changedItemSet(n *nsf.Note) map[string]bool {
	out := make(map[string]bool)
	for _, it := range n.Items {
		if it.Rev == n.OID.Seq {
			out[strings.ToLower(it.Name)] = true
		}
	}
	return out
}
