// Package acl implements Notes database access control: per-database access
// levels with roles, group resolution through the directory, and
// per-document Reader/Author item enforcement.
package acl

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/nsf"
)

// Level is a database access level. Higher levels include all rights of
// lower ones.
type Level int

// Access levels, weakest to strongest.
const (
	NoAccess Level = iota
	// Depositor may create documents but read none.
	Depositor
	// Reader may read documents (subject to Reader items).
	Reader
	// Author may create documents and edit those listing them in an
	// Authors item.
	Author
	// Editor may edit all documents.
	Editor
	// Designer may additionally modify design notes (views, forms).
	Designer
	// Manager may additionally modify the ACL itself.
	Manager
)

var levelNames = [...]string{"NoAccess", "Depositor", "Reader", "Author", "Editor", "Designer", "Manager"}

// String returns the level name.
func (l Level) String() string {
	if l < NoAccess || l > Manager {
		return fmt.Sprintf("Level(%d)", int(l))
	}
	return levelNames[l]
}

// ParseLevel parses a level name (case-insensitive).
func ParseLevel(s string) (Level, error) {
	for i, n := range levelNames {
		if strings.EqualFold(s, n) {
			return Level(i), nil
		}
	}
	return NoAccess, fmt.Errorf("acl: unknown level %q", s)
}

// Entry grants a name (user or group) a level and optional roles.
type Entry struct {
	Name  string
	Level Level
	Roles []string
}

// GroupResolver expands a user into the groups containing them; the
// directory implements it.
type GroupResolver interface {
	GroupsOf(user string) []string
}

// ACL is a database access control list. It is safe for concurrent use.
type ACL struct {
	mu           sync.RWMutex
	entries      map[string]Entry
	defaultLevel Level
}

// New returns an ACL with the given default level for names without an
// entry.
func New(defaultLevel Level) *ACL {
	return &ACL{entries: make(map[string]Entry), defaultLevel: defaultLevel}
}

func key(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// Set grants name a level and roles, replacing any existing entry.
func (a *ACL) Set(name string, level Level, roles ...string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.entries[key(name)] = Entry{Name: name, Level: level, Roles: roles}
}

// Remove deletes name's entry.
func (a *ACL) Remove(name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.entries, key(name))
}

// SetDefault changes the default level.
func (a *ACL) SetDefault(level Level) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.defaultLevel = level
}

// Default returns the default level.
func (a *ACL) Default() Level {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.defaultLevel
}

// Entries returns all entries sorted by name.
func (a *ACL) Entries() []Entry {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]Entry, 0, len(a.entries))
	for _, e := range a.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return key(out[i].Name) < key(out[j].Name) })
	return out
}

// Access resolves a user's effective level and roles: the user's own entry
// if present, otherwise the strongest entry among the user's groups,
// otherwise the default. Roles accumulate across all matching entries.
func (a *ACL) Access(user string, groups GroupResolver) (Level, []string) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var roles []string
	if e, ok := a.entries[key(user)]; ok {
		roles = append(roles, e.Roles...)
		// A personal entry wins outright, Notes-style, but group roles
		// still accumulate.
		if groups != nil {
			for _, g := range groups.GroupsOf(user) {
				if ge, ok := a.entries[key(g)]; ok {
					roles = append(roles, ge.Roles...)
				}
			}
		}
		return e.Level, dedupe(roles)
	}
	level := Level(-1)
	if groups != nil {
		for _, g := range groups.GroupsOf(user) {
			if ge, ok := a.entries[key(g)]; ok {
				if ge.Level > level {
					level = ge.Level
				}
				roles = append(roles, ge.Roles...)
			}
		}
	}
	if level < 0 {
		return a.defaultLevel, nil
	}
	return level, dedupe(roles)
}

func dedupe(names []string) []string {
	seen := make(map[string]bool, len(names))
	var out []string
	for _, n := range names {
		k := key(n)
		if !seen[k] {
			seen[k] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Identity is a user's resolved access context against one database: their
// name, group memberships, level and roles. Build it once per session with
// Resolve and reuse it for per-document checks.
type Identity struct {
	Name   string
	Level  Level
	Groups []string
	Roles  []string
	// names holds the lower-cased match set: name, groups, and [role] forms.
	names map[string]bool
}

// Resolve computes user's identity under this ACL.
func (a *ACL) Resolve(user string, groups GroupResolver) *Identity {
	level, roles := a.Access(user, groups)
	id := &Identity{Name: user, Level: level, Roles: roles, names: map[string]bool{key(user): true}}
	if groups != nil {
		id.Groups = groups.GroupsOf(user)
		for _, g := range id.Groups {
			id.names[key(g)] = true
		}
	}
	for _, r := range roles {
		role := strings.Trim(r, "[]")
		id.names["["+key(role)+"]"] = true
	}
	return id
}

// Matches reports whether name refers to this identity (the user, one of
// their groups, or one of their roles).
func (id *Identity) Matches(name string) bool {
	return id.names[key(name)]
}

// matchesAny reports whether any of names refers to this identity.
func (id *Identity) matchesAny(names []string) bool {
	for _, n := range names {
		if id.Matches(n) {
			return true
		}
	}
	return false
}

// ReadAccess returns the names that may read note: the entries of its
// Readers items plus, whenever any Readers item exists, the entries of its
// Authors items. It is nil for a note without Readers items, which every
// reader of the database may read. Views and the full-text index keep this
// list beside each entry, so a reader filtered there is filtered exactly as
// CanRead filters a loaded note.
func ReadAccess(note *nsf.Note) []string {
	readers := note.Readers()
	if len(readers) == 0 {
		return nil
	}
	return append(readers, note.Authors()...)
}

// Admits reports whether a note with the given ReadAccess list is visible to
// the identity's names: a nil list admits everyone. It does not check the
// access level.
func (id *Identity) Admits(access []string) bool {
	return len(access) == 0 || id.matchesAny(access)
}

// CanRead reports whether the identity may read note. Requires Reader level
// or better and admission by the note's ReadAccess list. Reader items
// restrict even Managers, exactly as in Notes.
func (id *Identity) CanRead(note *nsf.Note) bool {
	return id.Level >= Reader && id.Admits(ReadAccess(note))
}

// CanCreate reports whether the identity may create new documents.
func (id *Identity) CanCreate() bool {
	return id.Level >= Author || id.Level == Depositor
}

// CanEdit reports whether the identity may modify an existing note. Editors
// and above edit anything they can read; Authors only documents listing
// them in an Authors item.
func (id *Identity) CanEdit(note *nsf.Note) bool {
	if !id.CanRead(note) {
		return false
	}
	if id.Level >= Editor {
		return true
	}
	if id.Level == Author {
		return id.matchesAny(note.Authors())
	}
	return false
}

// CanDelete mirrors CanEdit; Notes has a separate "delete documents" bit,
// which this model folds into edit rights.
func (id *Identity) CanDelete(note *nsf.Note) bool { return id.CanEdit(note) }

// CanDesign reports whether the identity may modify design notes.
func (id *Identity) CanDesign() bool { return id.Level >= Designer }

// CanManageACL reports whether the identity may modify the ACL.
func (id *Identity) CanManageACL() bool { return id.Level >= Manager }
