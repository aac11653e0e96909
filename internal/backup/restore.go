package backup

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/nsf"
	"repro/internal/store"
	"repro/internal/vfs"
)

// RestoreOptions configure a restore.
type RestoreOptions struct {
	// TargetUSN is the point-in-time recovery target: the restored database
	// reflects exactly the operations with USN <= TargetUSN. Zero means
	// "everything the set (and archive) has".
	TargetUSN uint64
	// ArchiveDir, when non-empty, names the archived-WAL-segment directory
	// used to roll forward past the newest image toward TargetUSN.
	ArchiveDir string
}

// RestoreInfo reports what a restore did.
type RestoreInfo struct {
	// ReachedUSN is the USN state the restored database ends at.
	ReachedUSN uint64
	// Images is the number of backup images applied (full + incrementals).
	Images int
	// Notes is the number of note versions applied from incrementals.
	Notes int
	// ArchiveRecords is the number of archived log records replayed.
	ArchiveRecords int
	// Replica is the restored database's replica identity.
	Replica nsf.ReplicaID
}

// Restore rebuilds a database at targetPath from the backup set in setDir:
// the newest full image at or below the target USN, the incremental chain
// on top of it, then (when an archive directory is given) point-in-time
// roll-forward over archived WAL segments up to the target USN. Every
// image digest is verified before its bytes are used.
//
// The rebuild happens in a staging directory next to targetPath and is
// renamed into place only after the restored store has been closed cleanly,
// so a crash mid-restore leaves the target path untouched (at worst a
// stale staging directory a rerun removes). Restore refuses to overwrite
// an existing database. The staging, the restored store and the final
// rename all go through fsys (nil means vfs.OS), the filesystem the
// caller will open the result on.
func Restore(setDir, targetPath string, opts RestoreOptions, fsys vfs.FS) (RestoreInfo, error) {
	var info RestoreInfo
	if fsys == nil {
		fsys = vfs.OS
	}
	if f, err := fsys.OpenFile(targetPath, os.O_RDONLY, 0); err == nil {
		f.Close()
		return info, fmt.Errorf("backup: restore target %s already exists", targetPath)
	} else if !errors.Is(err, os.ErrNotExist) {
		return info, err
	}
	set, err := openSet(fsys, setDir)
	if err != nil {
		return info, err
	}
	chain, err := set.chainTo(opts.TargetUSN)
	if err != nil {
		return info, err
	}
	for _, img := range chain {
		if err := verifyImageDigest(fsys, img); err != nil {
			return info, err
		}
	}

	stageDir := targetPath + ".restore"
	// A stale staging directory from an interrupted restore is discarded.
	if err := fsys.RemoveAll(stageDir); err != nil {
		return info, err
	}
	if err := fsys.MkdirAll(stageDir, 0o755); err != nil {
		return info, err
	}
	defer fsys.RemoveAll(stageDir)
	stagePath := filepath.Join(stageDir, filepath.Base(targetPath))

	// Lay down the full image's two streams as the staged page file and
	// WAL; opening the store then runs ordinary crash recovery over them,
	// reproducing exactly the state at the image's EndUSN.
	full := chain[0]
	if err := extractFullImage(fsys, full, stagePath); err != nil {
		return info, err
	}
	st, err := store.Open(stagePath, store.Options{CheckpointEvery: -1, FS: fsys})
	if err != nil {
		return info, fmt.Errorf("backup: open restored image: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			st.Close()
		}
	}()
	if got := st.LastUSN(); got != full.EndUSN {
		return info, fmt.Errorf("%w: %s: image recovers to USN %d, header says %d",
			ErrCorruptImage, full.Path, got, full.EndUSN)
	}
	info.Images = 1
	info.Replica = st.ReplicaID()

	// Apply the incremental chain: put the changed notes, then delete every
	// staged note absent from the image's live-UNID manifest — those were
	// hard-deleted in the span the image covers. Each Put/Delete burns a
	// staged-store USN, but the source burned at least one USN per changed
	// note and per vanished note in the same span, so the staged store can
	// never overshoot the image's EndUSN; AdvanceUSN then equalizes to it,
	// keeping the cursor aligned for archive replay.
	for _, img := range chain[1:] {
		manifest, err := readIncremental(fsys, img, func(enc []byte) error {
			n, err := nsf.DecodeNote(enc)
			if err != nil {
				return fmt.Errorf("%w: %s: undecodable note: %v", ErrCorruptImage, img.Path, err)
			}
			if err := st.Put(n); err != nil {
				return err
			}
			info.Notes++
			return nil
		})
		if err != nil {
			return info, err
		}
		var vanished []nsf.UNID
		err = st.ScanAll(func(n *nsf.Note) bool {
			if _, ok := manifest[n.OID.UNID]; !ok {
				vanished = append(vanished, n.OID.UNID)
			}
			return true
		})
		if err != nil {
			return info, err
		}
		for _, u := range vanished {
			if err := st.Delete(u); err != nil {
				return info, err
			}
		}
		if st.LastUSN() > img.EndUSN {
			return info, fmt.Errorf("%w: %s: more changes than its USN span", ErrCorruptImage, img.Path)
		}
		st.AdvanceUSN(img.EndUSN)
		info.Images++
	}

	// Point-in-time roll-forward over the archived log.
	if opts.ArchiveDir != "" {
		applied, err := st.ApplyArchive(opts.ArchiveDir, opts.TargetUSN)
		if err != nil {
			return info, err
		}
		info.ArchiveRecords = applied
	}
	info.ReachedUSN = st.LastUSN()
	if opts.TargetUSN != 0 && info.ReachedUSN != opts.TargetUSN {
		return info, fmt.Errorf("backup: target USN %d unreachable: set%s rolls forward to %d",
			opts.TargetUSN, archiveClause(opts.ArchiveDir), info.ReachedUSN)
	}

	// Cursors the source issued may be past the USN restored to.
	st.Reincarnate()
	if err := st.Close(); err != nil {
		return info, err
	}
	closed = true
	// The target did not exist, so a crash between Install's renames leaves
	// a page file without its (empty, post-checkpoint) WAL — open recreates
	// an empty WAL, which is equivalent.
	return info, store.Install(fsys, stagePath, targetPath)
}

func archiveClause(dir string) string {
	if dir == "" {
		return " (no archive)"
	}
	return "+archive"
}

// extractFullImage publishes a full image's page and WAL streams as
// stagePath and stagePath+".wal" on fsys.
func extractFullImage(fsys vfs.FS, img ImageInfo, stagePath string) error {
	if img.Kind != KindFull {
		return fmt.Errorf("backup: %s is not a full image", img.Path)
	}
	f, err := fsys.OpenFile(img.Path, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	want := int64(imageHdrSize) + int64(img.PageBytes) + int64(img.WALBytes) + digestSize
	if img.Size != want {
		return fmt.Errorf("%w: %s: size %d, header implies %d", ErrCorruptImage, img.Path, img.Size, want)
	}
	copyOut := func(dst string, off, n int64) error {
		err := store.Publish(fsys, dst, func(out vfs.File) error {
			_, err := io.Copy(io.NewOffsetWriter(out, 0), io.NewSectionReader(f, off, n))
			return err
		})
		if err != nil {
			return fmt.Errorf("backup: extract %s: %w", dst, err)
		}
		return nil
	}
	if err := copyOut(stagePath, imageHdrSize, int64(img.PageBytes)); err != nil {
		return err
	}
	return copyOut(stagePath+".wal", int64(imageHdrSize)+int64(img.PageBytes), int64(img.WALBytes))
}
