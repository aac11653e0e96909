package core

import (
	"repro/internal/backup"
	"repro/internal/nsf"
)

// Online backup and media recovery, layered on internal/backup. The
// database-level entry points add the changefeed barrier: before an image
// is cut, every change consumer (views, full-text, subscribers) has
// applied through the image's USN, so a backup is a clean point in the
// change stream — no consumer is mid-entry at the captured USN, and a
// restored database's consumers rebuild to exactly the image state.

// Backup takes a hot full backup of the database into the backup set at
// setDir. Writes continue during the copy; the commit path is never
// blocked. The returned image info records the USN the image captures.
func (db *Database) Backup(setDir string) (backup.ImageInfo, error) {
	db.Refresh()
	return backup.Full(db.st, setDir, db.clock.Now())
}

// BackupIncremental appends an incremental image (every note committed
// since the set's newest image) to the backup set at setDir, falling back
// to a full backup when the set is empty or its newest image is of another
// copy.
func (db *Database) BackupIncremental(setDir string) (backup.ImageInfo, error) {
	db.Refresh()
	return backup.Incremental(db.st, setDir, db.clock.Now())
}

// LastBackupUSN returns the USN captured by the newest image in the backup
// set at setDir, with its creation time (0, 0 when the set is empty).
func LastBackupUSN(setDir string) (uint64, nsf.Timestamp, error) {
	set, err := backup.OpenSet(setDir)
	if err != nil {
		return 0, 0, err
	}
	if len(set.Images) == 0 {
		return 0, 0, nil
	}
	last := set.Images[len(set.Images)-1]
	return last.EndUSN, nsf.Timestamp(last.Created), nil
}

// Restore rebuilds a database at targetPath from the backup set at setDir
// (plus, optionally, archived WAL segments for point-in-time recovery) and
// opens it. The restored database's views, full-text index, and feed
// cursor rebuild from the restored store on open.
func Restore(setDir, targetPath string, ropts backup.RestoreOptions, opts Options) (*Database, backup.RestoreInfo, error) {
	info, err := backup.Restore(setDir, targetPath, ropts)
	if err != nil {
		return nil, info, err
	}
	db, err := Open(targetPath, opts)
	return db, info, err
}
