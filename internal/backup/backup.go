// Package backup implements online backup and media recovery for NSF
// databases: hot full images taken while writes continue, incremental
// images chained on the USN cursor, offline verification, and restore with
// point-in-time roll-forward over archived WAL segments.
//
// A backup set is a directory of image files:
//
//	img-0001-full.nbk   full image: page-file snapshot + WAL tail
//	img-0002-incr.nbk   incremental: notes/stubs committed since image 1,
//	                    plus the live-UNID manifest (for hard deletes)
//	img-0003-incr.nbk   ...
//
// Every image records the USN range it covers, the incarnation of the copy
// those USNs belong to, and the SHA-256 digest of its parent image, so the
// chain is self-verifying. Images reach the set through store.Publish: a
// crash or failure during a backup leaves at worst an ignored *.tmp file
// and never a half-visible image — the set stays verifiable and restorable.
//
// Restore rebuilds a database from the newest full image at or below the
// target USN, applies the incremental chain, then (for point-in-time
// recovery past the last image) replays archived WAL segments up to the
// target USN, verifying digests and CRCs at every step.
package backup

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/nsf"
	"repro/internal/store"
	"repro/internal/vfs"
)

// Image kinds.
const (
	// KindFull is a complete database image (page file + WAL tail).
	KindFull = 1
	// KindIncremental is a delta image: every note (stubs included)
	// committed since the parent image.
	KindIncremental = 2
)

const (
	imageMagic    = "NSFBKIM1"
	imageVersion  = 2
	imageHdrSize  = 8 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 32 + 8 + 8 + 4 + 4
	digestSize    = 32
	imageExt      = ".nbk"
	fullImageName = "full"
	incrImageName = "incr"
)

// ErrCorruptImage reports an image whose header, body, or digest failed
// verification.
var ErrCorruptImage = errors.New("backup: corrupt image")

// ErrBrokenChain reports a backup set whose incremental chain does not link
// (missing image, wrong parent digest, USN discontinuity, or an image of
// another copy).
var ErrBrokenChain = errors.New("backup: broken image chain")

// ErrEmptySet reports a restore from a set with no usable full image.
var ErrEmptySet = errors.New("backup: no full image in set")

// Header is the fixed-size metadata block at the start of every image.
type Header struct {
	// Kind is KindFull or KindIncremental.
	Kind uint32
	// Seq is the image's 1-based position in the set.
	Seq uint32
	// Replica is the source database's replica identity.
	Replica nsf.ReplicaID
	// BaseUSN is the USN the image's delta starts after (0 for full
	// images; the parent's EndUSN for incrementals).
	BaseUSN uint64
	// EndUSN is the last USN whose effects the image includes.
	EndUSN uint64
	// Incarnation identifies the source copy's USN sequence: an incremental
	// follows its parent only when both carry the store's incarnation.
	Incarnation uint64
	// Created is the backup wall time in unix nanoseconds.
	Created int64
	// Parent is the SHA-256 digest of the parent image (zero for full).
	Parent [digestSize]byte
	// PageBytes and WALBytes size the two body streams of a full image.
	PageBytes uint64
	WALBytes  uint64
	// Notes is the note count of an incremental image.
	Notes uint32
}

// ImageInfo describes one image in a set.
type ImageInfo struct {
	Header
	// Path is the image file.
	Path string
	// Digest is the SHA-256 over header and body (the trailer value).
	Digest [digestSize]byte
	// Size is the file size in bytes.
	Size int64
}

func encodeHeader(h *Header) []byte {
	buf := make([]byte, imageHdrSize)
	copy(buf, imageMagic)
	o := 8
	binary.LittleEndian.PutUint32(buf[o:], imageVersion)
	o += 4
	binary.LittleEndian.PutUint32(buf[o:], h.Kind)
	o += 4
	binary.LittleEndian.PutUint32(buf[o:], h.Seq)
	o += 4
	copy(buf[o:], h.Replica[:])
	o += 8
	binary.LittleEndian.PutUint64(buf[o:], h.BaseUSN)
	o += 8
	binary.LittleEndian.PutUint64(buf[o:], h.EndUSN)
	o += 8
	binary.LittleEndian.PutUint64(buf[o:], h.Incarnation)
	o += 8
	binary.LittleEndian.PutUint64(buf[o:], uint64(h.Created))
	o += 8
	copy(buf[o:], h.Parent[:])
	o += digestSize
	binary.LittleEndian.PutUint64(buf[o:], h.PageBytes)
	o += 8
	binary.LittleEndian.PutUint64(buf[o:], h.WALBytes)
	o += 8
	binary.LittleEndian.PutUint32(buf[o:], h.Notes)
	o += 4
	binary.LittleEndian.PutUint32(buf[o:], crc32.ChecksumIEEE(buf[:o]))
	return buf
}

func decodeHeader(path string, buf []byte) (Header, error) {
	var h Header
	if len(buf) < imageHdrSize || string(buf[:8]) != imageMagic {
		return h, fmt.Errorf("%w: %s: bad magic", ErrCorruptImage, path)
	}
	if crc32.ChecksumIEEE(buf[:imageHdrSize-4]) != binary.LittleEndian.Uint32(buf[imageHdrSize-4:]) {
		return h, fmt.Errorf("%w: %s: header CRC mismatch", ErrCorruptImage, path)
	}
	o := 8
	if v := binary.LittleEndian.Uint32(buf[o:]); v != imageVersion {
		return h, fmt.Errorf("%w: %s: unsupported version %d", ErrCorruptImage, path, v)
	}
	o += 4
	h.Kind = binary.LittleEndian.Uint32(buf[o:])
	o += 4
	h.Seq = binary.LittleEndian.Uint32(buf[o:])
	o += 4
	copy(h.Replica[:], buf[o:])
	o += 8
	h.BaseUSN = binary.LittleEndian.Uint64(buf[o:])
	o += 8
	h.EndUSN = binary.LittleEndian.Uint64(buf[o:])
	o += 8
	h.Incarnation = binary.LittleEndian.Uint64(buf[o:])
	o += 8
	h.Created = int64(binary.LittleEndian.Uint64(buf[o:]))
	o += 8
	copy(h.Parent[:], buf[o:])
	o += digestSize
	h.PageBytes = binary.LittleEndian.Uint64(buf[o:])
	o += 8
	h.WALBytes = binary.LittleEndian.Uint64(buf[o:])
	o += 8
	h.Notes = binary.LittleEndian.Uint32(buf[o:])
	return h, nil
}

func imageName(seq uint32, kind uint32) string {
	k := fullImageName
	if kind == KindIncremental {
		k = incrImageName
	}
	return fmt.Sprintf("img-%04d-%s%s", seq, k, imageExt)
}

// writeImage publishes an image on fsys through store.Publish: header
// placeholder and body, then the header with final values, then the
// SHA-256 trailer. body streams the image body and may update the header
// (sizes and cursors become known only after the copy). Any failure, like
// a kill, leaves the temp file behind for OpenSet to ignore.
func writeImage(fsys vfs.FS, dir string, h *Header, body func(w io.Writer) error) (ImageInfo, error) {
	final := filepath.Join(dir, imageName(h.Seq, h.Kind))
	var digest [digestSize]byte
	var n int64
	err := store.Publish(fsys, final, func(f vfs.File) error {
		w := io.NewOffsetWriter(f, 0)
		if _, err := w.Write(make([]byte, imageHdrSize)); err != nil {
			return fmt.Errorf("backup: write image: %w", err)
		}
		if err := body(w); err != nil {
			return err
		}
		// Final header now that the body pinned the sizes and cursors.
		if _, err := f.WriteAt(encodeHeader(h), 0); err != nil {
			return fmt.Errorf("backup: write image header: %w", err)
		}
		// Digest pass: hash the whole file (header + body) and append the
		// trailer. Rereading keeps the digest definitionally "over the bytes
		// a reader will see".
		n, _ = w.Seek(0, io.SeekCurrent)
		hash := sha256.New()
		if _, err := io.Copy(hash, io.NewSectionReader(f, 0, n)); err != nil {
			return fmt.Errorf("backup: digest image: %w", err)
		}
		hash.Sum(digest[:0])
		if _, err := w.Write(digest[:]); err != nil {
			return fmt.Errorf("backup: write image digest: %w", err)
		}
		return nil
	})
	if err != nil {
		return ImageInfo{}, err
	}
	return ImageInfo{Header: *h, Path: final, Digest: digest, Size: n + digestSize}, nil
}

// readImageInfo loads an image's header and trailer digest without
// verifying the body (Verify and Restore do the full digest pass).
func readImageInfo(path string) (ImageInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return ImageInfo{}, err
	}
	defer f.Close()
	hdr := make([]byte, imageHdrSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return ImageInfo{}, fmt.Errorf("%w: %s: short header", ErrCorruptImage, path)
	}
	h, err := decodeHeader(path, hdr)
	if err != nil {
		return ImageInfo{}, err
	}
	info, err := f.Stat()
	if err != nil {
		return ImageInfo{}, err
	}
	if info.Size() < imageHdrSize+digestSize {
		return ImageInfo{}, fmt.Errorf("%w: %s: truncated", ErrCorruptImage, path)
	}
	var digest [digestSize]byte
	if _, err := f.ReadAt(digest[:], info.Size()-digestSize); err != nil {
		return ImageInfo{}, fmt.Errorf("%w: %s: unreadable digest", ErrCorruptImage, path)
	}
	return ImageInfo{Header: h, Path: path, Digest: digest, Size: info.Size()}, nil
}

// verifyImageDigest re-hashes the image body and compares it to the
// trailer digest.
func verifyImageDigest(info ImageInfo) error {
	f, err := os.Open(info.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	hash := sha256.New()
	if _, err := io.Copy(hash, io.NewSectionReader(f, 0, info.Size-digestSize)); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorruptImage, info.Path, err)
	}
	var got [digestSize]byte
	hash.Sum(got[:0])
	if got != info.Digest {
		return fmt.Errorf("%w: %s: digest mismatch", ErrCorruptImage, info.Path)
	}
	return nil
}

// Set is a loaded backup set: the images in a directory, in sequence
// order.
type Set struct {
	// Dir is the set directory.
	Dir string
	// Images lists the set's images sorted by Seq.
	Images []ImageInfo
}

// OpenSet loads the backup set in dir. Temp files (crash leftovers) are
// ignored; images with unreadable headers fail the load. An empty or
// missing directory yields an empty set.
func OpenSet(dir string) (*Set, error) {
	s := &Set{Dir: dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return s, nil
		}
		return nil, fmt.Errorf("backup: read set dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "img-") || !strings.HasSuffix(name, imageExt) {
			continue
		}
		info, err := readImageInfo(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		s.Images = append(s.Images, info)
	}
	sort.Slice(s.Images, func(i, j int) bool { return s.Images[i].Seq < s.Images[j].Seq })
	return s, nil
}

// last returns the newest image, or nil for an empty set.
func (s *Set) last() *ImageInfo {
	if len(s.Images) == 0 {
		return nil
	}
	return &s.Images[len(s.Images)-1]
}

// chainTo returns the restore chain ending at target USN u: the newest
// full image with EndUSN <= u (or the newest full at all when none is
// below u and u is 0 meaning "latest"), followed by the incrementals up to
// u. Every link is checked by checkLink.
func (s *Set) chainTo(u uint64) ([]ImageInfo, error) {
	if u == 0 {
		u = ^uint64(0)
	}
	fullIdx := -1
	for i, img := range s.Images {
		if img.Kind == KindFull && img.EndUSN <= u {
			fullIdx = i
		}
	}
	if fullIdx < 0 {
		return nil, fmt.Errorf("%w (target USN %d)", ErrEmptySet, u)
	}
	chain := []ImageInfo{s.Images[fullIdx]}
	for i := fullIdx + 1; i < len(s.Images); i++ {
		img := s.Images[i]
		if img.Kind != KindIncremental || img.EndUSN > u {
			break
		}
		if err := checkLink(&chain[0], &chain[len(chain)-1], &img); err != nil {
			return nil, err
		}
		chain = append(chain, img)
	}
	return chain, nil
}

// checkLink reports, as ErrBrokenChain, why incremental img cannot follow
// prev in a chain that starts at full: a sequence gap, a USN discontinuity,
// another parent digest, or another copy (replica or incarnation).
func checkLink(full, prev, img *ImageInfo) error {
	switch {
	case img.Seq != prev.Seq+1:
		return fmt.Errorf("%w: image %s follows seq %d, want %d", ErrBrokenChain, img.Path, prev.Seq, prev.Seq+1)
	case img.BaseUSN != prev.EndUSN:
		return fmt.Errorf("%w: image %s bases on USN %d, parent ends at %d", ErrBrokenChain, img.Path, img.BaseUSN, prev.EndUSN)
	case img.Parent != prev.Digest:
		return fmt.Errorf("%w: image %s does not carry its parent's digest", ErrBrokenChain, img.Path)
	case img.Replica != full.Replica || img.Incarnation != full.Incarnation:
		return fmt.Errorf("%w: image %s is of another database copy than full image %s", ErrBrokenChain, img.Path, full.Path)
	}
	return nil
}

// Full takes a hot full backup of st into the set at dir, creating the
// directory if needed. Writes continue during the copy; only checkpoints
// are suspended. The returned info records the image's USN and cursor.
func Full(st *store.Store, dir string, now nsf.Timestamp) (ImageInfo, error) {
	if err := st.FS().MkdirAll(dir, 0o755); err != nil {
		return ImageInfo{}, fmt.Errorf("backup: set dir: %w", err)
	}
	set, err := OpenSet(dir)
	if err != nil {
		return ImageInfo{}, err
	}
	h := Header{Kind: KindFull, Seq: 1, Created: int64(now)}
	if lastImg := set.last(); lastImg != nil {
		h.Seq = lastImg.Seq + 1
	}
	info, err := writeImage(st.FS(), dir, &h, func(w io.Writer) error {
		// Stream the page file, then the WAL tail, back to back. The split
		// point (and so the final header) is only known after the copy, so
		// the body pins it into the header via the closure.
		mark, err := st.HotBackup(w, w)
		if err != nil {
			return err
		}
		h.Replica = mark.Replica
		h.EndUSN = mark.LastUSN
		h.Incarnation = mark.Incarnation
		h.PageBytes = uint64(mark.PageBytes)
		h.WALBytes = uint64(mark.WALBytes)
		return nil
	})
	return info, err
}

// Incremental takes an incremental backup of st into the set at dir: every
// note (stubs included) committed after the set's newest image's EndUSN,
// chained to it by USN and parent digest, followed by the manifest of all
// live UNIDs at capture time. The manifest is how restore reproduces hard
// deletes — the store does not keep per-UNID tombstones, so a note staged
// from an earlier image that is missing from the manifest is known to have
// been deleted in the covered span. It falls back to a full backup when the
// set is empty or its newest image is of another copy (another replica, or
// a database restored, recovered or recreated at the same path). An empty
// incremental is still written: it renews the chain head and cursor.
func Incremental(st *store.Store, dir string, now nsf.Timestamp) (ImageInfo, error) {
	set, err := OpenSet(dir)
	if err != nil {
		return ImageInfo{}, err
	}
	parent := set.last()
	if parent == nil || parent.Replica != st.ReplicaID() || parent.Incarnation != st.Incarnation() {
		return Full(st, dir, now)
	}
	notes, manifest, mark, err := st.SnapshotSince(parent.EndUSN)
	if err != nil {
		return ImageInfo{}, err
	}
	h := Header{
		Kind:        KindIncremental,
		Seq:         parent.Seq + 1,
		Replica:     mark.Replica,
		BaseUSN:     parent.EndUSN,
		EndUSN:      mark.LastUSN,
		Incarnation: mark.Incarnation,
		Created:     int64(now),
		Parent:      parent.Digest,
		Notes:       uint32(len(notes)),
	}
	return writeImage(st.FS(), dir, &h, func(w io.Writer) error {
		var frame [8]byte
		for _, enc := range notes {
			binary.LittleEndian.PutUint32(frame[:4], uint32(len(enc)))
			binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(enc))
			if _, err := w.Write(frame[:]); err != nil {
				return fmt.Errorf("backup: write incremental: %w", err)
			}
			if _, err := w.Write(enc); err != nil {
				return fmt.Errorf("backup: write incremental: %w", err)
			}
		}
		raw := make([]byte, 16*len(manifest))
		for i, u := range manifest {
			copy(raw[16*i:], u[:])
		}
		binary.LittleEndian.PutUint32(frame[:4], uint32(len(manifest)))
		binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(raw))
		if _, err := w.Write(frame[:]); err != nil {
			return fmt.Errorf("backup: write manifest: %w", err)
		}
		if _, err := w.Write(raw); err != nil {
			return fmt.Errorf("backup: write manifest: %w", err)
		}
		return nil
	})
}

// readIncremental streams the note frames of an incremental image to fn,
// then reads the live-UNID manifest that follows them and returns it as a
// set.
func readIncremental(img ImageInfo, fn func(enc []byte) error) (map[nsf.UNID]struct{}, error) {
	f, err := os.Open(img.Path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeIncremental(img.Path, io.NewSectionReader(f, imageHdrSize, img.Size-imageHdrSize-digestSize), img.Notes, fn)
}

// decodeIncremental reads an incremental body from r: notes CRC-framed
// note encodings, each handed to fn, then the manifest frame. Every frame
// is [count u32][crc u32] followed by count units of bytes, and a count
// whose bytes would overrun what remains of r is rejected before anything
// is allocated for it. The trailer digest vouches for integrity, not
// authenticity: whoever rewrites an image can recompute it, so this reader
// must hold its own bounds.
func decodeIncremental(name string, r *io.SectionReader, notes uint32, fn func(enc []byte) error) (map[nsf.UNID]struct{}, error) {
	left := r.Size()
	frame := func(what string, unit int64) ([]byte, error) {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("%w: %s: short %s frame", ErrCorruptImage, name, what)
		}
		left -= int64(len(hdr))
		size := unit * int64(binary.LittleEndian.Uint32(hdr[:4]))
		if size > left {
			return nil, fmt.Errorf("%w: %s: %s of %d bytes overruns the %d left in the image", ErrCorruptImage, name, what, size, left)
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, fmt.Errorf("%w: %s: short %s", ErrCorruptImage, name, what)
		}
		left -= size
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[4:]) {
			return nil, fmt.Errorf("%w: %s: %s CRC mismatch", ErrCorruptImage, name, what)
		}
		return body, nil
	}
	for i := uint32(0); i < notes; i++ {
		enc, err := frame("note", 1)
		if err != nil {
			return nil, err
		}
		if err := fn(enc); err != nil {
			return nil, err
		}
	}
	raw, err := frame("manifest", 16)
	if err != nil {
		return nil, err
	}
	manifest := make(map[nsf.UNID]struct{}, len(raw)/16)
	for ; len(raw) > 0; raw = raw[16:] {
		manifest[nsf.UNID(raw[:16])] = struct{}{}
	}
	return manifest, nil
}
