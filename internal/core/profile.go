package core

import (
	"crypto/sha256"
	"errors"
	"strings"

	"repro/internal/nsf"
)

// Profile documents: per-database (optionally per-user) settings documents
// addressed by name rather than UNID — Notes applications use them for
// preferences and configuration. The UNID derives deterministically from
// (replica ID, profile name, user), so replicas address the same logical
// profile and it replicates like any document.

func (db *Database) profileUNID(name, user string) nsf.UNID {
	replica := db.ReplicaID()
	sum := sha256.Sum256([]byte("profile:" + replica.String() + ":" +
		strings.ToLower(name) + ":" + strings.ToLower(user)))
	var u nsf.UNID
	copy(u[:], sum[:16])
	return u
}

// Profile returns the named profile document, creating an empty one on
// first access. Pass user="" for the database-wide profile.
func (s *Session) Profile(name, user string) (*nsf.Note, error) {
	if name == "" {
		return nil, errors.New("core: profile name must not be empty")
	}
	unid := s.db.profileUNID(name, user)
	n, err := s.db.RawGet(unid)
	if errors.Is(err, ErrNotFound) {
		n = &nsf.Note{OID: nsf.OID{UNID: unid}, Class: nsf.ClassDocument}
		n.SetWithFlags("$ProfileName", nsf.TextValue(name), nsf.FlagSummary)
		if user != "" {
			n.SetWithFlags("$ProfileUser", nsf.TextValue(user), nsf.FlagSummary)
		}
		if err := s.db.putVersioned(n, nil); err != nil {
			return nil, err
		}
		return n, nil
	}
	if err != nil {
		return nil, err
	}
	if n.IsStub() {
		return nil, ErrNotFound
	}
	if !s.id.CanRead(n) {
		return nil, ErrAccessDenied
	}
	return n, nil
}

// SaveProfile stores changes to a profile document fetched with Profile.
func (s *Session) SaveProfile(n *nsf.Note) error {
	if n.Text("$ProfileName") == "" {
		return errors.New("core: not a profile document")
	}
	return s.Update(n)
}

// IsProfile reports whether n is a profile document. Profile documents are
// excluded from view selection by convention; views that must skip them can
// SELECT on @IsUnavailable($ProfileName).
func IsProfile(n *nsf.Note) bool { return n.Has("$ProfileName") }
