package server

import (
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/backup"
	"repro/internal/core"
	"repro/internal/nsf"
)

// Server-side backup: the admin-facing entry points the nsfadmin `backup`
// command and the dominod scheduled backup job call into, plus the
// per-database backup status the catalog task reports.

// BackupStatus records a database's most recent backup.
type BackupStatus struct {
	// USN is the update sequence number the newest image captured.
	USN uint64
	// At is when the image was taken.
	At nsf.Timestamp
	// Kind is backup.KindFull or backup.KindIncremental.
	Kind uint32
	// SetDir is the backup-set directory the image went to.
	SetDir string
}

// archiveDirFor maps a database key to its WAL-archive directory.
func (s *Server) archiveDirFor(key string) string {
	return filepath.Join(s.opts.ArchiveLogDir, filepath.FromSlash(key)+".walog")
}

// ArchiveDirFor returns the WAL-archive directory for a database path, or
// "" when log archiving is off.
func (s *Server) ArchiveDirFor(path string) string {
	key, err := cleanDBPath(path)
	if err != nil || s.opts.ArchiveLogDir == "" {
		return ""
	}
	return s.archiveDirFor(key)
}

// Paths returns the data-directory-relative paths of every open database,
// sorted — the iteration surface for the scheduled backup job.
func (s *Server) Paths() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	paths := make([]string, 0, len(s.dbs))
	for p := range s.dbs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// backupSetDirFor maps a database key to its backup-set directory under a
// backup root: the db path with path separators kept, plus ".bak".
func backupSetDirFor(root, key string) string {
	return filepath.Join(root, filepath.FromSlash(key)+".bak")
}

// BackupSetDir returns the backup-set directory a database path backs up
// into under root — the location BackupDB writes and RestoreDB reads. The
// rebalancer uses it to find a dead mate's images when re-homing.
func BackupSetDir(root, path string) (string, error) {
	key, err := cleanDBPath(path)
	if err != nil {
		return "", err
	}
	return backupSetDirFor(root, key), nil
}

// BackupDB backs up one open database into its set directory under root.
// With full=false it appends an incremental image (falling back to a full
// image when the set is empty). The result is recorded for the catalog.
func (s *Server) BackupDB(path, root string, full bool) (backup.ImageInfo, error) {
	key, err := cleanDBPath(path)
	if err != nil {
		return backup.ImageInfo{}, err
	}
	s.mu.Lock()
	db, ok := s.dbs[key]
	s.mu.Unlock()
	if !ok {
		return backup.ImageInfo{}, fmt.Errorf("server: database %s is not open", path)
	}
	setDir := backupSetDirFor(root, key)
	var img backup.ImageInfo
	if full {
		img, err = db.Backup(setDir)
	} else {
		img, err = db.BackupIncremental(setDir)
	}
	if err != nil {
		s.logf(LogBackup, "%s failed: %v", key, err)
		return img, err
	}
	s.mu.Lock()
	if s.backups == nil {
		s.backups = make(map[string]BackupStatus)
	}
	s.backups[key] = BackupStatus{
		USN:    img.EndUSN,
		At:     s.clock.Now(),
		Kind:   img.Kind,
		SetDir: setDir,
	}
	s.mu.Unlock()
	kind := "incremental"
	if img.Kind == backup.KindFull {
		kind = "full"
	}
	s.logf(LogBackup, "%s: %s image seq %d through USN %d", key, kind, img.Seq, img.EndUSN)
	return img, nil
}

// BackupAll backs up every open database under root (the scheduled job's
// body). Failures are logged and counted but do not stop the sweep; the
// first error is returned after every database has been attempted.
func (s *Server) BackupAll(root string, full bool) (int, error) {
	var firstErr error
	done := 0
	for _, path := range s.Paths() {
		if _, err := s.BackupDB(path, root, full); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		done++
	}
	return done, firstErr
}

// LastBackup returns the most recent backup status for a database path
// (zero status and false when it has never been backed up this run).
func (s *Server) LastBackup(path string) (BackupStatus, bool) {
	key, err := cleanDBPath(path)
	if err != nil {
		return BackupStatus{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.backups[key]
	return st, ok
}

// RestoreDB restores a database into the data directory from a backup set,
// then opens it. The target path must not already be open or on disk.
func (s *Server) RestoreDB(path, setDir string, ropts backup.RestoreOptions) (backup.RestoreInfo, error) {
	key, err := cleanDBPath(path)
	if err != nil {
		return backup.RestoreInfo{}, err
	}
	s.mu.Lock()
	_, open := s.dbs[key]
	s.mu.Unlock()
	if open {
		return backup.RestoreInfo{}, fmt.Errorf("server: database %s is open; restore needs a fresh path", path)
	}
	full := filepath.Join(s.opts.DataDir, filepath.FromSlash(key))
	info, err := backup.Restore(setDir, full, ropts, nil)
	if err != nil {
		return info, err
	}
	s.logf(LogBackup, "%s: restored through USN %d (%d images, %d archived records)",
		key, info.ReachedUSN, info.Images, info.ArchiveRecords)
	_, err = s.OpenDB(key, core.Options{})
	return info, err
}
