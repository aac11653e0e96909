// Package mesh implements the epidemic replication mesh: a server's set of
// replication links, each naming a peer, a database glob, an optional
// selection formula, a direction, and a schedule class. Links gossip
// changes pairwise — hot links fire on local commits (debounced),
// cold links run jittered anti-entropy rounds — and the whole mesh
// converges every replica of a database to the same replicated state,
// which package check fingerprints.
//
// The scheduler respects the server's admission state (a draining node
// stops originating rounds), backs off failing links exponentially, and
// opens a circuit breaker after repeated failures so a dead peer costs one
// probe per cooldown instead of a connect timeout per round. A replica-ID
// mismatch on one database is a skip, not a link failure: broad globs
// legitimately sweep up databases the peer holds under the same path with
// a different replica identity.
package mesh

import (
	"fmt"
	"hash/fnv"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/repl"
)

// FingerprintDB is check.Fingerprint, kept for callers that reach the
// convergence fingerprint through the mesh.
func FingerprintDB(db *core.Database) (check.Print, error) { return check.Fingerprint(db) }

// Direction says which way a link moves changes.
type Direction uint8

// Link directions.
const (
	// Both pulls then pushes (the default).
	Both Direction = iota
	// Pull only fetches the peer's changes.
	Pull
	// Push only sends local changes.
	Push
)

// String returns the direction's config-file spelling.
func (d Direction) String() string {
	switch d {
	case Pull:
		return "pull"
	case Push:
		return "push"
	default:
		return "both"
	}
}

// ParseDirection parses a config-file direction.
func ParseDirection(s string) (Direction, error) {
	switch strings.ToLower(s) {
	case "both", "":
		return Both, nil
	case "pull":
		return Pull, nil
	case "push":
		return Push, nil
	}
	return Both, fmt.Errorf("mesh: unknown direction %q (want pull, push, or both)", s)
}

// Class is a link's schedule tier.
type Class uint8

// Schedule classes.
const (
	// Cold links replicate on a jittered anti-entropy interval.
	Cold Class = iota
	// Hot links additionally fire on local commits (debounced), so
	// local writes propagate within the debounce window; the interval
	// remains as the catch-up floor for changes that arrive at the peer.
	Hot
)

// String returns the class's config-file spelling.
func (c Class) String() string {
	if c == Hot {
		return "hot"
	}
	return "cold"
}

// ParseClass parses a config-file schedule class.
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(s) {
	case "cold", "":
		return Cold, nil
	case "hot":
		return Hot, nil
	}
	return Cold, fmt.Errorf("mesh: unknown class %q (want hot or cold)", s)
}

// Link is one replication edge of the mesh, as configured.
type Link struct {
	// Name identifies the link for admin commands and status.
	Name string
	// Peer is the remote server name (resolved by the Dialer).
	Peer string
	// Glob selects which local databases the link covers, matched against
	// the data-directory-relative path and, as a convenience, the path's
	// base name. Empty or "*" covers everything replicable.
	Glob string
	// Formula is an optional selection formula applied to the link's
	// sessions; it is compiled and validated when the link is added, and a
	// document outside the selection travels as a selection stub (see
	// package repl).
	Formula string
	// Direction says which way changes move.
	Direction Direction
	// Class is the schedule tier.
	Class Class
	// Interval is the anti-entropy period (cold) or catch-up floor (hot).
	// 0 uses the mesh default.
	Interval time.Duration
	// Debounce is the hot-link commit debounce window. 0 uses the mesh
	// default.
	Debounce time.Duration
}

// LinkStatus is a link's live scheduling and transfer state.
type LinkStatus struct {
	Link
	// Rounds counts completed replication rounds (successful or not).
	Rounds uint64
	// Failures counts rounds that ended in error.
	Failures uint64
	// ConsecFails is the current failure streak; it trips the breaker.
	ConsecFails int
	// BreakerOpen reports the circuit breaker is open (peer presumed down).
	BreakerOpen bool
	// SkippedDBs counts databases skipped for replica-ID mismatch.
	SkippedDBs uint64
	// NotesIn/NotesOut count notes pulled/pushed over the link's lifetime.
	NotesIn, NotesOut uint64
	// BytesIn/BytesOut approximate transfer volume.
	BytesIn, BytesOut uint64
	// Lag is the time since the last successful round (0 before the first).
	Lag time.Duration
	// Note is the last error or noteworthy condition, "" when healthy.
	Note string
}

// Node is the mesh's view of its local server.
type Node interface {
	// Name is the local server name.
	Name() string
	// Paths lists the replicable local database paths (data-dir relative);
	// server-private databases (mail.box, logs, catalogs) are excluded.
	Paths() []string
	// Open opens a local database by path.
	Open(path string) (*core.Database, error)
	// Admitted reports whether the node accepts replication work; a
	// draining or quiesced server returns false and the scheduler holds
	// all links until it recovers.
	Admitted() bool
}

// Session is one dialed connection to a peer server.
type Session interface {
	// Open returns the peer's database at path as a replication peer.
	Open(dbPath string) (repl.Peer, error)
	// Close releases the connection.
	Close() error
}

// Dialer connects to peer servers by name.
type Dialer interface {
	Dial(peer string) (Session, error)
}

// DialFunc adapts a function to Dialer.
type DialFunc func(peer string) (Session, error)

// Dial implements Dialer.
func (f DialFunc) Dial(peer string) (Session, error) { return f(peer) }

// Options configure a mesh scheduler.
type Options struct {
	// Node is the local server.
	Node Node
	// Dialer reaches peer servers.
	Dialer Dialer
	// Interval is the default link interval (default 30s).
	Interval time.Duration
	// Debounce is the default hot-link debounce (default 50ms).
	Debounce time.Duration
	// Cooldown is how long an open breaker holds before a half-open probe.
	// When zero, each link uses 4x its own interval — a hot 1s link must
	// not sit out a cooldown sized for a 30s anti-entropy link.
	Cooldown time.Duration
	// Logf, when set, receives scheduler log lines.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.Interval <= 0 {
		o.Interval = 30 * time.Second
	}
	if o.Debounce <= 0 {
		o.Debounce = 50 * time.Millisecond
	}
}

// cooldown is the breaker hold for one link: the mesh-wide override, or
// 4x the link's own interval.
func (m *Mesh) cooldown(l Link) time.Duration {
	if m.opts.Cooldown > 0 {
		return m.opts.Cooldown
	}
	return 4 * l.Interval
}

// Mesh schedules a server's replication links. All methods are safe for
// concurrent use.
type Mesh struct {
	opts Options

	mu     sync.Mutex
	links  map[string]*linkState
	closed bool
	wg     sync.WaitGroup
}

// New creates a mesh scheduler for the node. Links start empty; Add them
// from config (dominod), the admin surface (nsfadmin mesh add), or a
// parsed topology file.
func New(opts Options) (*Mesh, error) {
	if opts.Node == nil || opts.Dialer == nil {
		return nil, fmt.Errorf("mesh: Node and Dialer are required")
	}
	opts.defaults()
	return &Mesh{opts: opts, links: make(map[string]*linkState)}, nil
}

// Validate checks a link definition without adding it: the name, peer, and
// glob must be well-formed and the selection formula must compile (a bad
// formula surfaces here as a typed *repl.FormulaError).
func (m *Mesh) Validate(l Link) error {
	if l.Name == "" {
		return fmt.Errorf("mesh: link needs a name")
	}
	if strings.ContainsAny(l.Name, " \t!") {
		return fmt.Errorf("mesh: link name %q contains whitespace or '!'", l.Name)
	}
	if l.Peer == "" {
		return fmt.Errorf("mesh: link %s needs a peer", l.Name)
	}
	if strings.EqualFold(l.Peer, m.opts.Node.Name()) {
		return fmt.Errorf("mesh: link %s points at this server", l.Name)
	}
	if l.Glob != "" {
		if _, err := path.Match(l.Glob, "probe"); err != nil {
			return fmt.Errorf("mesh: link %s: bad glob %q: %w", l.Name, l.Glob, err)
		}
	}
	if _, err := repl.CompileSelection(l.Formula); err != nil {
		return fmt.Errorf("mesh: link %s: %w", l.Name, err)
	}
	return nil
}

// Add validates the link and starts scheduling it.
func (m *Mesh) Add(l Link) error {
	if err := m.Validate(l); err != nil {
		return err
	}
	if l.Interval <= 0 {
		l.Interval = m.opts.Interval
	}
	if l.Debounce <= 0 {
		l.Debounce = m.opts.Debounce
	}
	ls := &linkState{
		link:    l,
		kick:    make(chan struct{}, 1),
		changed: make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("mesh: closed")
	}
	if _, dup := m.links[l.Name]; dup {
		m.mu.Unlock()
		return fmt.Errorf("mesh: link %s already exists", l.Name)
	}
	m.links[l.Name] = ls
	m.wg.Add(1)
	m.mu.Unlock()
	if l.Class == Hot {
		m.attach(ls) // before Add returns, so no commit after it is missed
	}
	go m.run(ls)
	m.logf("link %s: added (%s -> %s glob %q %s %s every %s)",
		l.Name, m.opts.Node.Name(), l.Peer, l.Glob, l.Class, l.Direction, l.Interval)
	return nil
}

// Remove stops and forgets a link. Its replication cursors stay in the
// databases, so re-adding the link resumes incrementally.
func (m *Mesh) Remove(name string) error {
	m.mu.Lock()
	ls, ok := m.links[name]
	if ok {
		delete(m.links, name)
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("mesh: no link %s", name)
	}
	ls.shutdown()
	m.logf("link %s: removed", name)
	return nil
}

// RunNow schedules an immediate round for the link, bypassing its interval
// (but not its breaker cooldown).
func (m *Mesh) RunNow(name string) error {
	m.mu.Lock()
	ls, ok := m.links[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("mesh: no link %s", name)
	}
	select {
	case ls.kick <- struct{}{}:
	default:
	}
	return nil
}

// Status snapshots every link, sorted by name.
func (m *Mesh) Status() []LinkStatus {
	m.mu.Lock()
	states := make([]*linkState, 0, len(m.links))
	for _, ls := range m.links {
		states = append(states, ls)
	}
	m.mu.Unlock()
	out := make([]LinkStatus, 0, len(states))
	for _, ls := range states {
		out = append(out, ls.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Links returns the configured link definitions, sorted by name.
func (m *Mesh) Links() []Link {
	sts := m.Status()
	out := make([]Link, len(sts))
	for i, st := range sts {
		out[i] = st.Link
	}
	return out
}

// Close stops every link and waits for in-flight rounds to finish.
func (m *Mesh) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	states := make([]*linkState, 0, len(m.links))
	for _, ls := range m.links {
		states = append(states, ls)
	}
	m.links = make(map[string]*linkState)
	m.mu.Unlock()
	for _, ls := range states {
		ls.shutdown()
	}
	m.wg.Wait()
}

func (m *Mesh) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf("mesh: "+format, args...)
	}
}

// matches reports whether a database path is covered by the link's glob.
func matches(glob, dbPath string) bool {
	if glob == "" || glob == "*" {
		return true
	}
	if ok, _ := path.Match(glob, dbPath); ok {
		return true
	}
	ok, _ := path.Match(glob, path.Base(dbPath))
	return ok
}

// cursorName derives the replication-history peer name for a link and
// database. It folds in the link name and a hash of the selection formula:
// two links to the same peer keep independent cursors, and editing a
// link's formula resets its cursors so the new selection re-evaluates
// history (the widened-formula backfill in package repl depends on this).
func cursorName(l Link, dbPath string) string {
	h := fnv.New32a()
	h.Write([]byte(l.Formula))
	return fmt.Sprintf("mesh/%s!!%s!!%s#%08x", l.Name, l.Peer, dbPath, h.Sum32())
}
