package backup

import (
	"fmt"

	"repro/internal/nsf"
	"repro/internal/store"
	"repro/internal/vfs"
)

// VerifyResult reports the outcome of an offline integrity pass over a
// backup set (and, optionally, its log archive).
type VerifyResult struct {
	// Images is the number of images checked.
	Images int
	// Notes is the number of incremental note records checked.
	Notes int
	// Segments is the number of archived WAL segments checked.
	Segments int
	// ArchiveRecords is the number of archived log records checked.
	ArchiveRecords int
	// Problems lists every integrity failure found, one line each. Empty
	// means the set is sound.
	Problems []string
}

// OK reports whether the pass found no problems.
func (r *VerifyResult) OK() bool { return len(r.Problems) == 0 }

func (r *VerifyResult) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// VerifySet runs an offline integrity pass over the backup set in setDir:
// every image's SHA-256 digest, every incremental note frame's CRC and
// decodability, the chain links between consecutive images (checkLink),
// and — when archiveDir is non-empty — every archived segment's header and
// frame CRCs plus the USN continuity of the archive as a whole. It collects
// problems rather than stopping at the first, so one report covers the
// whole set.
func VerifySet(setDir, archiveDir string) (*VerifyResult, error) {
	r := &VerifyResult{}
	set, err := OpenSet(setDir)
	if err != nil {
		// An unreadable image header poisons the whole set listing; report
		// it as the single problem rather than failing the pass.
		r.problemf("%v", err)
		return r, nil
	}
	if len(set.Images) == 0 {
		r.problemf("set %s holds no images", setDir)
	}
	var full, prev *ImageInfo
	for i := range set.Images {
		img := &set.Images[i]
		r.Images++
		if err := verifyImageDigest(vfs.OS, *img); err != nil {
			r.problemf("%v", err)
			// The body is untrustworthy; skip its frame checks but still
			// check the chain fields, which the header CRC vouches for.
		} else if img.Kind == KindIncremental {
			var unids []nsf.UNID
			manifest, err := readIncremental(vfs.OS, *img, func(enc []byte) error {
				n, err := nsf.DecodeNote(enc)
				if err != nil {
					return fmt.Errorf("%s: undecodable note: %v", img.Path, err)
				}
				unids = append(unids, n.OID.UNID)
				r.Notes++
				return nil
			})
			if err != nil {
				r.problemf("%v", err)
			} else {
				// Every note the delta carries was live at capture time, so
				// it must appear in the image's own manifest.
				for _, u := range unids {
					if _, ok := manifest[u]; !ok {
						r.problemf("%s: delta note %s missing from manifest", img.Path, u)
					}
				}
			}
		}
		switch {
		case img.Kind == KindFull:
			full = img // a full image starts a fresh chain; nothing to link
		case full == nil:
			r.problemf("%s: no full image precedes this incremental", img.Path)
		default:
			if err := checkLink(full, prev, img); err != nil {
				r.problemf("%v", err)
			}
		}
		prev = img
	}

	if archiveDir != "" {
		segs, err := store.ListSegments(vfs.OS, archiveDir)
		if err != nil {
			r.problemf("%v", err)
			segs = nil
		}
		var lastUSN uint64
		for i, seg := range segs {
			r.Segments++
			if i > 0 && seg.FirstUSN > lastUSN+1 {
				r.problemf("%s: archive gap: segment starts at USN %d, previous ends at %d",
					seg.Path, seg.FirstUSN, lastUSN)
			}
			n, err := store.VerifySegment(vfs.OS, seg)
			if err != nil {
				r.problemf("%v", err)
			}
			r.ArchiveRecords += n
			if seg.LastUSN > lastUSN {
				lastUSN = seg.LastUSN
			}
		}
	}
	return r, nil
}
