package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/nsf"
)

// Folders are user-curated document collections: like views, but membership
// is explicit (drag a document in) rather than computed by a selection
// formula. A folder persists as a design note holding the member UNIDs, so
// folders replicate with the database.

const (
	itemFolderTitle = "$FolderTitle"
	itemFolderRefs  = "$FolderRefs"
)

// folderNote finds the design note for the named folder.
func (db *Database) folderNote(name string) (*nsf.Note, error) {
	n, err := db.designNote(itemFolderTitle, name)
	if err == nil && n == nil {
		err = fmt.Errorf("core: no folder %q", name)
	}
	return n, err
}

// CreateFolder creates an empty folder. Requires Designer access when a
// session is supplied.
func (db *Database) CreateFolder(s *Session, name string) error {
	if s != nil && !s.Identity().CanDesign() {
		return fmt.Errorf("%w: %s may not create folders", ErrAccessDenied, s.User())
	}
	if name == "" {
		return errors.New("core: folder name must not be empty")
	}
	if _, err := db.folderNote(name); err == nil {
		return fmt.Errorf("core: folder %q already exists", name)
	}
	n := nsf.NewNote(nsf.ClassView)
	n.SetText(itemFolderTitle, name)
	n.SetText(itemFolderRefs)
	return db.putVersioned(n)
}

// Folders lists folder names, sorted.
func (db *Database) Folders() ([]string, error) {
	var out []string
	err := db.designNotes(func(n *nsf.Note) bool {
		if t := n.Text(itemFolderTitle); t != "" {
			out = append(out, t)
		}
		return true
	})
	sort.Strings(out)
	return out, err
}

// AddToFolder puts a document into a folder (idempotent). The session must
// be able to read the document.
func (s *Session) AddToFolder(folder string, unid nsf.UNID) error {
	if _, err := s.Get(unid); err != nil {
		return err
	}
	fn, err := s.db.folderNote(folder)
	if err != nil {
		return err
	}
	refs := fn.TextList(itemFolderRefs)
	key := unid.String()
	for _, r := range refs {
		if r == key {
			return nil
		}
	}
	fn.SetText(itemFolderRefs, append(refs, key)...)
	return s.db.putVersioned(fn)
}

// RemoveFromFolder takes a document out of a folder; it reports whether the
// document was a member.
func (s *Session) RemoveFromFolder(folder string, unid nsf.UNID) (bool, error) {
	fn, err := s.db.folderNote(folder)
	if err != nil {
		return false, err
	}
	refs := fn.TextList(itemFolderRefs)
	key := unid.String()
	// TextList aliases the stored value's backing array (which cached reads
	// share); compact into a fresh slice rather than in place.
	kept := make([]string, 0, len(refs))
	removed := false
	for _, r := range refs {
		if r == key {
			removed = true
			continue
		}
		kept = append(kept, r)
	}
	if !removed {
		return false, nil
	}
	fn.SetText(itemFolderRefs, kept...)
	return true, s.db.putVersioned(fn)
}

// FolderContents returns the folder's readable documents in insertion
// order, silently skipping members that have since been deleted or that
// the session may not read.
func (s *Session) FolderContents(folder string) ([]*nsf.Note, error) {
	fn, err := s.db.folderNote(folder)
	if err != nil {
		return nil, err
	}
	var out []*nsf.Note
	for _, r := range fn.TextList(itemFolderRefs) {
		unid, err := nsf.ParseUNID(r)
		if err != nil {
			continue
		}
		n, err := s.Get(unid)
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	return out, nil
}
