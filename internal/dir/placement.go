// Placement records: the directory's map from each database to the cluster
// mates that home it. This is the Domino "cluster replica" model — a database
// lives on a subset of the cluster, the directory says which subset, and
// clients resolve placement before opening. Records carry a generation number
// so concurrent movers can be serialized with compare-and-swap updates and so
// clients can tell a stale cache from a fresh one.
package dir

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Placement maps one database to its home mates.
type Placement struct {
	// Path is the database path as stored on every home mate, e.g.
	// "mail/ada.nsf".
	Path string
	// Home lists the cluster-mate names that hold a replica and may serve
	// the database. Order is not significant; names are as registered.
	Home []string
	// Replicas is the target replica factor. It may exceed len(Home) while
	// the rebalancer is still materializing copies.
	Replicas int
	// Generation increments on every change to this record. A client or
	// mover holding generation G knows its view is stale the moment it
	// sees G' > G.
	Generation uint64
}

// Homes returns a copy of the home set.
func (p Placement) Homes() []string { return append([]string(nil), p.Home...) }

// HasHome reports whether mate (case-insensitive) is in the home set.
func (p Placement) HasHome(mate string) bool {
	for _, h := range p.Home {
		if strings.EqualFold(strings.TrimSpace(h), strings.TrimSpace(mate)) {
			return true
		}
	}
	return false
}

// ErrPlacementConflict is returned by UpdatePlacement when the record changed
// under the caller: the expected generation no longer matches. Exactly one of
// any set of racing movers wins per generation.
var ErrPlacementConflict = errors.New("dir: placement generation conflict")

// SetPlacement registers or replaces the placement record for path,
// unconditionally bumping the generation past any prior record.
func (d *Directory) SetPlacement(path string, home []string, replicas int) (Placement, error) {
	if strings.TrimSpace(path) == "" {
		return Placement{}, fmt.Errorf("dir: placement path must not be empty")
	}
	home = dedupNames(home)
	if replicas <= 0 {
		replicas = len(home)
	}
	if replicas <= 0 {
		replicas = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	k := key(path)
	p := Placement{
		Path:       strings.TrimSpace(path),
		Home:       home,
		Replicas:   replicas,
		Generation: d.places[k].Generation + 1,
	}
	d.places[k] = p
	d.placeVer.Add(1)
	return p, nil
}

// GetPlacement returns the placement record for path, if one exists. A
// database without a record is unplaced: every mate may serve it (the
// pre-placement behavior).
func (d *Directory) GetPlacement(path string) (Placement, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.places[key(path)]
	if !ok {
		return Placement{}, false
	}
	p.Home = append([]string(nil), p.Home...)
	return p, true
}

// Placements returns a snapshot of every placement record, sorted by path.
func (d *Directory) Placements() []Placement {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]Placement, 0, len(d.places))
	for _, p := range d.places {
		p.Home = append([]string(nil), p.Home...)
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// RemovePlacement deletes the record for path, returning the database to
// unplaced (served-anywhere) state.
func (d *Directory) RemovePlacement(path string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.places[key(path)]; ok {
		delete(d.places, key(path))
		d.placeVer.Add(1)
	}
}

// UpdatePlacement replaces the home set for path if and only if the current
// generation equals expectGen. On success the stored generation becomes
// expectGen+1 and the new record is returned; otherwise ErrPlacementConflict.
// An expectGen of 0 requires that no record exists yet. The record keeps
// its replica factor; a new record's is the size of its home set.
func (d *Directory) UpdatePlacement(path string, expectGen uint64, home []string) (Placement, error) {
	if strings.TrimSpace(path) == "" {
		return Placement{}, fmt.Errorf("dir: placement path must not be empty")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	k := key(path)
	cur, ok := d.places[k]
	if ok && cur.Generation != expectGen {
		return Placement{}, fmt.Errorf("%w: %s at generation %d, expected %d",
			ErrPlacementConflict, path, cur.Generation, expectGen)
	}
	if !ok && expectGen != 0 {
		return Placement{}, fmt.Errorf("%w: %s has no record, expected generation %d",
			ErrPlacementConflict, path, expectGen)
	}
	home = dedupNames(home)
	replicas := cur.Replicas
	if !ok {
		replicas = max(len(home), 1)
	}
	p := Placement{
		Path:       strings.TrimSpace(path),
		Home:       home,
		Replicas:   replicas,
		Generation: expectGen + 1,
	}
	d.places[k] = p
	d.placeVer.Add(1)
	return p, nil
}

// AssignPlacement creates a record for path using the rendezvous-hash default
// over mates, unless one already exists (which is returned unchanged).
func (d *Directory) AssignPlacement(path string, mates []string, replicas int) (Placement, error) {
	if p, ok := d.GetPlacement(path); ok {
		return p, nil
	}
	home := RendezvousHome(path, mates, replicas)
	if len(home) == 0 {
		return Placement{}, fmt.Errorf("dir: no mates to place %s on", path)
	}
	return d.SetPlacement(path, home, replicas)
}

// PlacementVersion is a cheap monotonic counter bumped on every placement
// mutation. Servers cache per-connection placement checks against it so the
// hot op path re-validates only when something actually moved.
func (d *Directory) PlacementVersion() uint64 { return d.placeVer.Load() }

// RendezvousHome picks the replicas highest-scoring mates for path using
// rendezvous (highest-random-weight) hashing: every (path, mate) pair gets a
// deterministic score, and each mate added or removed disturbs only the
// databases that hashed to it. Ties break on mate name for determinism.
func RendezvousHome(path string, mates []string, replicas int) []string {
	mates = dedupNames(mates)
	if len(mates) == 0 {
		return nil
	}
	if replicas <= 0 {
		replicas = 1
	}
	if replicas > len(mates) {
		replicas = len(mates)
	}
	type scored struct {
		name  string
		score uint64
	}
	pk := key(path)
	ss := make([]scored, 0, len(mates))
	for _, m := range mates {
		h := sha256.Sum256([]byte(pk + "\x00" + key(m)))
		ss = append(ss, scored{m, binary.BigEndian.Uint64(h[:8])})
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].name < ss[j].name
	})
	out := make([]string, 0, replicas)
	for _, s := range ss[:replicas] {
		out = append(out, s.name)
	}
	return out
}

// dedupNames trims, drops empties, and removes case-insensitive duplicates
// while preserving first-seen order and capitalization.
func dedupNames(names []string) []string {
	seen := make(map[string]bool, len(names))
	out := make([]string, 0, len(names))
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" || seen[key(n)] {
			continue
		}
		seen[key(n)] = true
		out = append(out, n)
	}
	return out
}
