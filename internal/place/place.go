// Package place is the rebalancer: it moves a database between cluster
// mates while the database stays online, and re-homes databases off a dead
// mate. A move is composed entirely from machinery the server already has —
// hot backup for the bulk image, catch-up replication for the delta, the
// admission controller's Quiesce fence for the final cut-over — and commits
// by a compare-and-swap on the directory's generation-stamped placement
// record, so exactly one move wins per generation no matter how many
// rebalancers race.
//
// Move state machine:
//
//	IMAGE    src.BackupDB (hot, full) -> dst.RestoreDB  [skipped if dst holds a copy]
//	CATCHUP  repl.Replicate(src -> dst) until a round moves nothing,
//	         woken by the source's commits (Notify) while writers go on
//	FENCE    src.Quiesce: drain in-flight ops, shed new ones (retryable)
//	DELTA    one final replication pass over the now-quiet source
//	FLIP     dir.UpdatePlacement CAS at the generation read at start;
//	         conflict => another move won, this one aborts cleanly
//	RESUME   src.Resume; redirected clients re-resolve to the new home
//
// An aborted move may leave a restored copy on the target. That is harmless:
// placement enforcement means a non-home mate redirects opens rather than
// serving them, and a later move re-uses the copy as its image.
package place

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/backup"
	"repro/internal/core"
	"repro/internal/dir"
	"repro/internal/repl"
	"repro/internal/server"
)

// ErrNotHomed reports that the move's source no longer homes the database —
// the placement record changed under the mover (usually a racing move won).
var ErrNotHomed = errors.New("place: source does not home database")

// catchupRounds bounds a move's pre-fence replication loop.
const catchupRounds = 16

// quiesceTimeout bounds a move's drain fence.
const quiesceTimeout = 10 * time.Second

// MoveOptions tunes a live move.
type MoveOptions struct {
	// BackupRoot is where the bulk image is written ("" uses a directory
	// next to the source's data under os.TempDir is NOT assumed — the
	// caller must provide a root; moves between servers on one host can
	// share the scheduled-backup root so images are reused).
	BackupRoot string
	// Log receives progress lines ("" is discarded).
	Log func(format string, args ...any)
}

// MoveResult describes a committed move (or re-home).
type MoveResult struct {
	Path       string
	From       []string // home set before the flip
	To         []string // home set after the flip
	Generation uint64   // generation the flip committed
	Rounds     int      // catch-up replication rounds before the fence
	Moved      int      // notes carried by catch-up + final delta
	Elapsed    time.Duration
}

// moveKey serializes moves per (source, path) inside one process; the
// directory CAS is the cross-process backstop.
type moveKey struct {
	src  *server.Server
	path string
}

var moveLocks sync.Map // moveKey -> *sync.Mutex

func lockFor(src *server.Server, path string) *sync.Mutex {
	k := moveKey{src, strings.ToLower(path)}
	mu, _ := moveLocks.LoadOrStore(k, &sync.Mutex{})
	return mu.(*sync.Mutex)
}

// logf sends a progress line to a MoveOptions or RecoverOptions Log hook.
func logf(log func(format string, args ...any), format string, args ...any) {
	if log != nil {
		log(format, args...)
	}
}

// rehome swaps old for new in a home set, preserving order and dropping
// duplicates. A home set that never contained old gains new at the end.
func rehome(home []string, oldName, newName string) []string {
	out := make([]string, 0, len(home)+1)
	seen := false
	for _, h := range home {
		switch {
		case strings.EqualFold(h, oldName):
			if !seen && !containsFold(out, newName) {
				out = append(out, newName)
			}
			seen = true
		case !containsFold(out, h):
			out = append(out, h)
		}
	}
	if !containsFold(out, newName) {
		out = append(out, newName)
	}
	return out
}

func containsFold(xs []string, want string) bool {
	for _, x := range xs {
		if strings.EqualFold(x, want) {
			return true
		}
	}
	return false
}

// Move relocates one database from src to dst while both serve traffic,
// then flips the placement record so clients re-route. Acked writes are
// never lost: every write acknowledged before the flip is either replicated
// by the fenced final delta, or was shed retryably during the fence and
// lands on the new home after the client's redirect.
func Move(d *dir.Directory, src, dst *server.Server, path string, opts MoveOptions) (MoveResult, error) {
	start := time.Now()
	res := MoveResult{Path: path}
	if d == nil || src == nil || dst == nil {
		return res, errors.New("place: directory and both servers are required")
	}
	if src == dst || strings.EqualFold(src.Name(), dst.Name()) {
		return res, errors.New("place: source and target are the same mate")
	}

	mu := lockFor(src, path)
	mu.Lock()
	defer mu.Unlock()

	// Read the placement this move commits against. The CAS at the end
	// only succeeds if no other mover flipped it in between.
	var expectGen uint64
	var from []string
	if cur, ok := d.GetPlacement(path); ok {
		expectGen = cur.Generation
		from = cur.Home
		if !cur.HasHome(src.Name()) {
			return res, fmt.Errorf("%w: %s is homed on %s, not %s (gen %d): %w",
				ErrNotHomed, path, strings.Join(cur.Home, ","), src.Name(), cur.Generation,
				dir.ErrPlacementConflict)
		}
	}
	res.From = from
	newHome := rehome(from, src.Name(), dst.Name())

	srcDB, ok := src.DB(path)
	if !ok {
		return res, fmt.Errorf("place: source %s does not hold %s", src.Name(), path)
	}

	// IMAGE: materialize the bulk of the database on the target via a hot
	// backup image. A copy already on the target (from an aborted move or
	// standing replication) is reused as-is; catch-up closes the gap.
	dstDB, ok := dst.DB(path)
	if !ok {
		if opts.BackupRoot == "" {
			return res, errors.New("place: BackupRoot required when the target holds no copy")
		}
		if _, err := src.BackupDB(path, opts.BackupRoot, true); err != nil {
			return res, fmt.Errorf("place: image: %w", err)
		}
		setDir, err := server.BackupSetDir(opts.BackupRoot, path)
		if err != nil {
			return res, err
		}
		if _, err := dst.RestoreDB(path, setDir, backup.RestoreOptions{}); err != nil {
			return res, fmt.Errorf("place: restore on %s: %w", dst.Name(), err)
		}
		if dstDB, ok = dst.DB(path); !ok {
			return res, fmt.Errorf("place: %s missing after restore on %s", path, dst.Name())
		}
		logf(opts.Log, "move %s: imaged onto %s", path, dst.Name())
	}

	peer := &repl.LocalPeer{DB: dstDB}
	ropts := repl.Options{PeerName: "move:" + strings.ToLower(dst.Name())}

	// CATCHUP: replicate the delta while writers keep going. A commit wakes
	// the next round, so a steady writer doesn't force a full catchupRounds
	// spin when the delta is already drained.
	changed := make(chan struct{}, 1)
	defer srcDB.Notify(changed)()
	for res.Rounds < catchupRounds {
		res.Rounds++
		st, err := repl.Replicate(srcDB, peer, ropts)
		if err != nil {
			return res, fmt.Errorf("place: catch-up round %d: %w", res.Rounds, err)
		}
		moved := st.Push.Total() + st.Pull.Total()
		res.Moved += moved
		if moved == 0 {
			break
		}
		select {
		case <-changed:
		case <-time.After(10 * time.Millisecond):
		}
	}
	logf(opts.Log, "move %s: caught up in %d rounds (%d notes)", path, res.Rounds, res.Moved)

	// FENCE + DELTA: drain the source so nothing is in flight, carry the
	// final delta, and flip placement before the source serves again.
	if err := src.Quiesce(quiesceTimeout); err != nil {
		return res, fmt.Errorf("place: fence: %w", err)
	}
	defer src.Resume()
	st, err := repl.Replicate(srcDB, peer, ropts)
	if err != nil {
		return res, fmt.Errorf("place: final delta: %w", err)
	}
	res.Moved += st.Push.Total() + st.Pull.Total()

	// FLIP: commit at the generation read at start. A conflict means a
	// racing mover already won this generation; abort with the source
	// intact (Resume runs via defer).
	p, err := d.UpdatePlacement(path, expectGen, newHome)
	if err != nil {
		return res, fmt.Errorf("place: flip %s at gen %d: %w", path, expectGen, err)
	}
	res.To = p.Home
	res.Generation = p.Generation
	res.Elapsed = time.Since(start)
	logf(opts.Log, "move %s: %s -> %s committed at gen %d (%s)",
		path, strings.Join(res.From, ","), strings.Join(res.To, ","), res.Generation, res.Elapsed)
	return res, nil
}

// RecoverOptions tunes a dead-mate re-home.
type RecoverOptions struct {
	// BackupRoot holds the dead mate's backup sets (required unless the
	// target already has a copy of the database).
	BackupRoot string
	// DeadDataDir, when non-empty, points at the dead mate's surviving
	// data directory; Recover opens the file directly and replicates the
	// post-backup delta into the new home (media recovery's last mile).
	DeadDataDir string
	// Log receives progress lines.
	Log func(format string, args ...any)
}

// Recover re-homes one database from a dead mate onto dst: restore the most
// recent backup image, optionally catch up from the dead mate's on-disk
// file, and CAS the placement record so deadName is replaced by dst. The
// same exactly-one-winner rule applies — concurrent recoveries of one
// database commit a single generation.
func Recover(d *dir.Directory, deadName string, dst *server.Server, path string, opts RecoverOptions) (MoveResult, error) {
	start := time.Now()
	res := MoveResult{Path: path}
	if d == nil || dst == nil {
		return res, errors.New("place: directory and target server are required")
	}
	if strings.EqualFold(deadName, dst.Name()) {
		return res, errors.New("place: cannot recover a mate onto itself")
	}

	var expectGen uint64
	var from []string
	if cur, ok := d.GetPlacement(path); ok {
		expectGen = cur.Generation
		from = cur.Home
		if !cur.HasHome(deadName) {
			return res, fmt.Errorf("%w: %s is homed on %s, not dead mate %s: %w",
				ErrNotHomed, path, strings.Join(cur.Home, ","), deadName, dir.ErrPlacementConflict)
		}
	}
	res.From = from
	newHome := rehome(from, deadName, dst.Name())

	dstDB, ok := dst.DB(path)
	if !ok {
		if opts.BackupRoot == "" {
			return res, errors.New("place: BackupRoot required when the target holds no copy")
		}
		setDir, err := server.BackupSetDir(opts.BackupRoot, path)
		if err != nil {
			return res, err
		}
		if _, err := dst.RestoreDB(path, setDir, backup.RestoreOptions{}); err != nil {
			return res, fmt.Errorf("place: restore on %s: %w", dst.Name(), err)
		}
		if dstDB, ok = dst.DB(path); !ok {
			return res, fmt.Errorf("place: %s missing after restore on %s", path, dst.Name())
		}
		logf(opts.Log, "recover %s: restored image onto %s", path, dst.Name())
	}

	// Carry the post-backup delta straight off the dead mate's file when
	// its disk survived the crash.
	if opts.DeadDataDir != "" {
		full := filepath.Join(opts.DeadDataDir, filepath.FromSlash(path))
		dead, err := core.Open(full, core.Options{})
		if err == nil {
			st, rerr := repl.Replicate(dead, &repl.LocalPeer{DB: dstDB},
				repl.Options{PeerName: "recover:" + strings.ToLower(dst.Name())})
			cerr := dead.Close()
			if rerr != nil {
				return res, fmt.Errorf("place: dead-file catch-up: %w", rerr)
			}
			if cerr != nil {
				return res, fmt.Errorf("place: closing dead file: %w", cerr)
			}
			res.Moved = st.Push.Total() + st.Pull.Total()
			res.Rounds = 1
			logf(opts.Log, "recover %s: caught up %d notes from dead file", path, res.Moved)
		} else {
			logf(opts.Log, "recover %s: dead file unreadable (%v); image only", path, err)
		}
	}

	p, err := d.UpdatePlacement(path, expectGen, newHome)
	if err != nil {
		return res, fmt.Errorf("place: flip %s at gen %d: %w", path, expectGen, err)
	}
	res.To = p.Home
	res.Generation = p.Generation
	res.Elapsed = time.Since(start)
	logf(opts.Log, "recover %s: %s -> %s committed at gen %d (%s)",
		path, strings.Join(res.From, ","), strings.Join(res.To, ","), res.Generation, res.Elapsed)
	return res, nil
}
