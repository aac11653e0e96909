package core

import (
	"errors"
	"fmt"

	"repro/internal/nsf"
)

// Archiving: Domino's archive task moves aging documents out of a
// production database into an archive database, leaving deletion stubs
// behind so the removals replicate like ordinary deletes.

// ArchiveStats reports one archiving pass.
type ArchiveStats struct {
	Moved   int
	Skipped int // already present in the archive with the same version
}

// ArchiveTo moves every document whose last modification is older than
// cutoff into dst, which must be a different database (typically not a
// replica — it has its own replica ID). Documents keep their UNIDs and
// versions in the archive; the source is left with deletion stubs. Design
// notes, profile documents, and conflict documents are never archived.
func (db *Database) ArchiveTo(dst *Database, cutoff nsf.Timestamp) (ArchiveStats, error) {
	var stats ArchiveStats
	if dst == db {
		return stats, errors.New("core: cannot archive a database into itself")
	}
	if dst.ReplicaID() == db.ReplicaID() {
		return stats, errors.New("core: archive target must not be a replica of the source")
	}
	var victims []*nsf.Note
	err := db.st.ScanAll(func(n *nsf.Note) bool {
		if n.Class != nsf.ClassDocument || n.IsStub() || n.IsConflict() || IsProfile(n) {
			return true
		}
		if n.Modified < cutoff {
			victims = append(victims, n)
		}
		return true
	})
	if err != nil {
		return stats, err
	}
	for _, n := range victims {
		existing, err := dst.RawGet(n.OID.UNID)
		switch {
		case errors.Is(err, ErrNotFound):
			if err := dst.RawPut(n.Clone()); err != nil {
				return stats, fmt.Errorf("core: archive copy: %w", err)
			}
			stats.Moved++
		case err != nil:
			return stats, err
		case existing.OID == n.OID:
			stats.Skipped++
		default:
			if err := dst.RawPut(n.Clone()); err != nil {
				return stats, err
			}
			stats.Moved++
		}
		// Leave a stub in the source so the removal replicates.
		stub := &nsf.Note{
			ID:      n.ID,
			OID:     n.OID,
			Class:   n.Class,
			Flags:   n.Flags | nsf.FlagDeleted,
			Created: n.Created,
		}
		if err := db.putVersioned(stub); err != nil {
			return stats, err
		}
	}
	return stats, nil
}
