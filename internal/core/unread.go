package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"strings"
	"sync"

	"repro/internal/nsf"
)

// Unread marks: Notes tracks, per user and per database, which documents
// the user has read. A document is unread until marked read, and becomes
// unread again when modified after the read mark. Tables are persisted in
// local bookkeeping notes (class ClassReplFormula) that never replicate,
// matching classic Notes behaviour where unread marks were per-replica.

// unreadTable is one user's read-mark table.
type unreadTable struct {
	mu sync.Mutex
	// read maps a document to the Modified timestamp it had when the user
	// last read it.
	read map[nsf.UNID]nsf.Timestamp
}

func unreadNoteUNID(user string) nsf.UNID {
	sum := sha256.Sum256([]byte("unread:" + strings.ToLower(user)))
	var u nsf.UNID
	copy(u[:], sum[:16])
	return u
}

// unreadFor loads (or creates) the in-memory table for user.
func (db *Database) unreadFor(user string) (*unreadTable, error) {
	key := strings.ToLower(user)
	db.mu.Lock()
	if db.unread == nil {
		db.unread = make(map[string]*unreadTable)
	}
	if t, ok := db.unread[key]; ok {
		db.mu.Unlock()
		return t, nil
	}
	db.mu.Unlock()
	t := &unreadTable{read: make(map[nsf.UNID]nsf.Timestamp)}
	n, err := db.RawGet(unreadNoteUNID(user))
	switch {
	case errors.Is(err, ErrNotFound):
		// fresh table
	case err != nil:
		return nil, err
	default:
		blob := n.Get("ReadMarks").Raw
		for off := 0; off+24 <= len(blob); off += 24 {
			var u nsf.UNID
			copy(u[:], blob[off:off+16])
			t.read[u] = nsf.Timestamp(binary.LittleEndian.Uint64(blob[off+16 : off+24]))
		}
	}
	db.mu.Lock()
	if existing, ok := db.unread[key]; ok {
		t = existing // lost a benign race; use the winner
	} else {
		db.unread[key] = t
	}
	db.mu.Unlock()
	return t, nil
}

// persistUnread writes the table's current state to its bookkeeping note.
func (db *Database) persistUnread(user string, t *unreadTable) error {
	t.mu.Lock()
	blob := make([]byte, 0, len(t.read)*24)
	for u, ts := range t.read {
		blob = append(blob, u[:]...)
		blob = binary.LittleEndian.AppendUint64(blob, uint64(ts))
	}
	t.mu.Unlock()
	n := &nsf.Note{OID: nsf.OID{UNID: unreadNoteUNID(user)}, Class: nsf.ClassReplFormula}
	n.SetText("UnreadUser", user)
	n.Set("ReadMarks", nsf.RawValue(blob))
	return db.putVersioned(n, nil)
}

// MarkRead records that the session's user has read the document in its
// current version.
func (s *Session) MarkRead(unid nsf.UNID) error {
	n, err := s.db.RawHeader(unid)
	if err != nil {
		return err
	}
	t, err := s.db.unreadFor(s.user)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.read[unid] = n.Modified
	t.mu.Unlock()
	return s.db.persistUnread(s.user, t)
}

// MarkUnread clears the user's read mark for the document.
func (s *Session) MarkUnread(unid nsf.UNID) error {
	t, err := s.db.unreadFor(s.user)
	if err != nil {
		return err
	}
	t.mu.Lock()
	delete(t.read, unid)
	t.mu.Unlock()
	return s.db.persistUnread(s.user, t)
}

// IsUnread reports whether the document is unread for this session's user:
// never marked read, or modified since the mark. Missing documents read as
// not-unread.
func (s *Session) IsUnread(unid nsf.UNID) bool {
	n, err := s.db.RawHeader(unid)
	if err != nil || n.IsStub() {
		return false
	}
	t, err := s.db.unreadFor(s.user)
	if err != nil {
		return true
	}
	t.mu.Lock()
	mark, ok := t.read[unid]
	t.mu.Unlock()
	return !ok || n.Modified > mark
}

// UnreadCount counts unread, readable documents, pruning marks for
// documents that no longer exist.
func (s *Session) UnreadCount() (int, error) {
	t, err := s.db.unreadFor(s.user)
	if err != nil {
		return 0, err
	}
	live := make(map[nsf.UNID]bool)
	count := 0
	err = s.All(func(n *nsf.Note) bool {
		live[n.OID.UNID] = true
		t.mu.Lock()
		mark, ok := t.read[n.OID.UNID]
		t.mu.Unlock()
		if !ok || n.Modified > mark {
			count++
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	// Prune marks for vanished documents so tables do not grow forever.
	t.mu.Lock()
	pruned := false
	for u := range t.read {
		if !live[u] {
			delete(t.read, u)
			pruned = true
		}
	}
	t.mu.Unlock()
	if pruned {
		if err := s.db.persistUnread(s.user, t); err != nil {
			return 0, err
		}
	}
	return count, nil
}

// MarkAllRead marks every currently readable document as read.
func (s *Session) MarkAllRead() error {
	t, err := s.db.unreadFor(s.user)
	if err != nil {
		return err
	}
	err = s.All(func(n *nsf.Note) bool {
		t.mu.Lock()
		t.read[n.OID.UNID] = n.Modified
		t.mu.Unlock()
		return true
	})
	if err != nil {
		return err
	}
	return s.db.persistUnread(s.user, t)
}
