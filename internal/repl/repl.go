// Package repl implements Notes replication: pairwise, bidirectional,
// incremental synchronization between databases sharing a replica ID.
//
// Change detection uses originator IDs (sequence number + sequence time):
// the replicator pulls version summaries changed since the last sync,
// fetches the notes whose remote version wins the OID comparison, and
// applies them locally. Deletions travel as deletion stubs. Concurrent
// edits with equal sequence numbers are conflicts: the loser is preserved
// as a "$Conflict" response document — or, when field-level merging is
// enabled and the two edits touched disjoint item sets, merged into the
// winner.
//
// Selective replication evaluates a formula on the source side. Its
// semantics are stub-correct: a document outside the selection is not
// silently withheld — the source advertises a *selection stub* (same OID,
// FlagSelStub, no content), so a document that falls out of a link's
// selection mid-life is deleted on the destination rather than left
// frozen at its last matching version. Selection stubs carry no deletion
// authority: a strictly newer live version (the document re-entering the
// selection) resurrects the document, and a selection stub meeting the
// live version it shadows (same OID) is a no-op on both sides. Because a
// selection stub shares the OID of the version it withholds, replicas
// converge to identical (UNID, Seq, SeqTime) sets whether or not their
// links filter — the property the mesh convergence audit fingerprints.
package repl

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/nsf"
	"repro/internal/store"
)

// Summary is the version descriptor exchanged during the cheap first phase
// of replication.
type Summary struct {
	UNID    nsf.UNID
	Seq     uint32
	SeqTime nsf.Timestamp
	Deleted bool
	// SelStub marks a selection stub: the source holds this version live
	// but it is outside the link's selection formula, so only its identity
	// travels. The receiver materializes a FlagSelStub stub from the
	// summary alone — there is no stored stub to fetch on the source.
	SelStub bool
	Class   nsf.NoteClass
}

// summaryWireBytes approximates the on-wire size of one summary, for the
// byte accounting in Stats.
const summaryWireBytes = 16 + 4 + 8 + 1 + 2

// OID reconstructs the summary's originator ID.
func (s Summary) OID() nsf.OID {
	return nsf.OID{UNID: s.UNID, Seq: s.Seq, SeqTime: s.SeqTime}
}

// SummaryOf builds the summary of a note.
func SummaryOf(n *nsf.Note) Summary {
	return Summary{
		UNID:    n.OID.UNID,
		Seq:     n.OID.Seq,
		SeqTime: n.OID.SeqTime,
		Deleted: n.IsStub(),
		SelStub: n.IsSelStub(),
		Class:   n.Class,
	}
}

// StubFromSummary materializes the deletion (or selection) stub a summary
// describes. Stubs carry no content beyond identity, version, and class,
// so the receiver can apply them from the summary alone — no fetch round
// trip, and no risk of a selection stub leaking the live content the
// source actually holds.
func StubFromSummary(s Summary) *nsf.Note {
	flags := nsf.FlagDeleted
	if s.SelStub {
		flags |= nsf.FlagSelStub
	}
	return &nsf.Note{
		OID:     s.OID(),
		Class:   s.Class,
		Flags:   flags,
		Created: s.SeqTime,
	}
}

// SelectionStub clones a live note into the selection stub that stands in
// for it on replicas whose link formula excludes it.
func SelectionStub(n *nsf.Note) *nsf.Note {
	return &nsf.Note{
		OID:     n.OID,
		Class:   n.Class,
		Flags:   n.Flags | nsf.FlagDeleted | nsf.FlagSelStub,
		Created: n.Created,
	}
}

// Peer is one side of a replication session. A local database implements it
// directly (LocalPeer); the wire package provides a remote implementation.
type Peer interface {
	// ReplicaID identifies the peer's replica set.
	ReplicaID() (nsf.ReplicaID, error)
	// Summaries lists version summaries of notes changed after the cursor
	// since, filtered by the optional selective-replication formula source
	// (stubs always pass). It also returns the cursor the caller persists
	// for the next call. Cursors are the peer store's (incarnation, USN):
	// one minted by another copy — a failover mate, or this peer before a
	// restore — lists everything again rather than skipping what that copy
	// numbered differently.
	Summaries(since store.Cursor, formulaSrc string) ([]Summary, store.Cursor, error)
	// Fetch returns the full notes for the given UNIDs; missing ones are
	// silently omitted.
	Fetch(unids []nsf.UNID) ([]*nsf.Note, error)
	// Apply stores incoming notes on the peer using its conflict rules.
	Apply(notes []*nsf.Note) (ApplyStats, error)
}

// ApplyStats counts the outcomes of applying a batch of notes.
type ApplyStats struct {
	Added     int // notes new to the receiver
	Updated   int // newer versions accepted
	Deleted   int // deletion stubs applied over live notes
	Conflicts int // conflict documents created
	Merged    int // conflicts resolved by field-level merge
	Skipped   int // receiver already had this or a newer version
}

// Add accumulates other into s.
func (s *ApplyStats) Add(other ApplyStats) {
	s.Added += other.Added
	s.Updated += other.Updated
	s.Deleted += other.Deleted
	s.Conflicts += other.Conflicts
	s.Merged += other.Merged
	s.Skipped += other.Skipped
}

// Total returns the number of notes that changed the receiver.
func (s ApplyStats) Total() int {
	return s.Added + s.Updated + s.Deleted + s.Conflicts + s.Merged
}

// Stats reports one replication session.
type Stats struct {
	Pull ApplyStats // changes applied locally
	Push ApplyStats // changes applied at the peer
	// SummariesIn counts version summaries received.
	SummariesIn int
	// NotesFetched counts full notes pulled.
	NotesFetched int
	// NotesSent counts full notes pushed.
	NotesSent int
	// BytesIn/BytesOut approximate transfer volume (encoded note bytes plus
	// summary records).
	BytesIn  int64
	BytesOut int64
}

// String renders a compact session summary.
func (s Stats) String() string {
	return fmt.Sprintf("pull[+%d ~%d -%d c%d m%d s%d] push[+%d ~%d -%d c%d m%d s%d] bytes[in %d out %d]",
		s.Pull.Added, s.Pull.Updated, s.Pull.Deleted, s.Pull.Conflicts, s.Pull.Merged, s.Pull.Skipped,
		s.Push.Added, s.Push.Updated, s.Push.Deleted, s.Push.Conflicts, s.Push.Merged, s.Push.Skipped,
		s.BytesIn, s.BytesOut)
}

// conflictUNID derives the deterministic UNID of the conflict document
// preserving the losing version, so that every replica that detects the
// same conflict materializes the same document and replication converges.
func conflictUNID(loser nsf.OID) nsf.UNID {
	var buf [28]byte
	copy(buf[:16], loser.UNID[:])
	binary.LittleEndian.PutUint32(buf[16:], loser.Seq)
	binary.LittleEndian.PutUint64(buf[20:], uint64(loser.SeqTime))
	sum := sha256.Sum256(buf[:])
	var u nsf.UNID
	copy(u[:], sum[:16])
	return u
}
