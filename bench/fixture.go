package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dir"
	"repro/internal/nsf"
	"repro/internal/server"
	"repro/internal/view"
	"repro/internal/wire"
	"repro/internal/workload"
)

const (
	dbPath     = "bench.nsf"
	userName   = "ada"
	userSecret = "pw"
	peerSecret = "peer-pw"
	sortedView = "bysubject"
	bodyBytes  = 1024
	pageRows   = 100
)

// node is one in-process server with the benchmark database open.
type node struct {
	name string
	opts server.Options
	srv  *server.Server
	db   *core.Database
	addr string
}

// newDirectory registers the benchmark user and the server names, which
// authenticate to each other for replication and cluster push.
func newDirectory(servers ...string) *dir.Directory {
	d := dir.New()
	d.AddUser(dir.User{Name: userName, Secret: userSecret})
	for _, s := range servers {
		d.AddUser(dir.User{Name: s, Secret: peerSecret})
	}
	return d
}

// startNode brings up a server over root/name and opens the benchmark
// database there, creating it (as a replica of replica, when that is set)
// on first use. The database sets no cache knob: the note cache and the
// page pool stay at their defaults.
func startNode(root, name string, d *dir.Directory, opts server.Options, replica nsf.ReplicaID) (*node, error) {
	opts.Name = name
	opts.DataDir = filepath.Join(root, name)
	opts.Directory = d
	opts.PeerSecret = peerSecret
	n := &node{name: name, opts: opts}
	return n, n.open(replica)
}

func (n *node) open(replica nsf.ReplicaID) error {
	srv, err := server.New(n.opts)
	if err != nil {
		return err
	}
	db, err := srv.OpenDB(dbPath, core.Options{Title: "bench", ReplicaID: replica})
	if err != nil {
		srv.Close()
		return err
	}
	n.srv, n.db = srv, db
	return nil
}

// serve enables full text and starts listening on a loopback port.
func (n *node) serve() error {
	if err := n.db.EnableFullText(); err != nil {
		return err
	}
	addr, err := n.srv.Start("127.0.0.1:0")
	n.addr = addr
	return err
}

// seed stores notes through a local session, in batches.
func (n *node) seed(notes []*nsf.Note) error {
	sess := n.db.Session(userName)
	for len(notes) > 0 {
		k := min(256, len(notes))
		if _, err := sess.PutBatch(notes[:k]); err != nil {
			return err
		}
		notes = notes[k:]
	}
	return nil
}

// addViews defines the sorted and the categorised view every benchmark
// database carries. It runs after seeding: one rebuild beats an incremental
// update per document.
func (n *node) addViews() error {
	sorted, err := view.NewDefinition(sortedView, "SELECT @All",
		view.Column{Title: "Subject", ItemName: "Subject", Sorted: true},
		view.Column{Title: "From", ItemName: "From"})
	if err != nil {
		return err
	}
	if err := n.db.AddView(nil, sorted); err != nil {
		return err
	}
	categorised, err := view.NewDefinition("bycategory", "SELECT @All",
		view.Column{Title: "Category", ItemName: "Category", Categorized: true},
		view.Column{Title: "Subject", ItemName: "Subject", Sorted: true})
	if err != nil {
		return err
	}
	return n.db.AddView(nil, categorised)
}

// storedBytes is what the database occupies on disk: page file, WAL and
// full-text sidecar.
func (n *node) storedBytes() (int64, error) {
	matches, err := filepath.Glob(filepath.Join(n.opts.DataDir, dbPath+"*"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, m := range matches {
		fi, err := os.Stat(m)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// --- documents and the client-side model ---

// doc is what the benchmark remembers of a document to check answers
// against: identity, the acked version, a checksum of the acked content,
// and the acked note itself (an update sends the whole note back).
type doc struct {
	note *nsf.Note
	sum  uint64
	seq  uint32
}

func (d *doc) unid() nsf.UNID  { return d.note.OID.UNID }
func (d *doc) subject() string { return d.note.Text("Subject") }

// ack records n as the version the server acknowledged.
func (d *doc) ack(n *nsf.Note, seq uint32) {
	d.note, d.sum, d.seq = n, checksum(n), seq
}

// checksum digests the items a client reads back.
func checksum(n *nsf.Note) uint64 {
	h := fnv.New64a()
	for _, item := range []string{"Subject", "From", "Category", "Body"} {
		h.Write([]byte(n.Text(item)))
		h.Write([]byte{0})
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(n.Number("Priority")))
	h.Write(b[:])
	return h.Sum64()
}

// userBytes is the size of the content a user stored in n: the bytes of
// its item values.
func userBytes(n *nsf.Note) int64 {
	var total int64
	for _, it := range n.Items {
		for _, s := range it.Value.Text {
			total += int64(len(s))
		}
		total += 8 * int64(len(it.Value.Numbers)+len(it.Value.Times))
	}
	return total
}

// model is a set of live documents one client owns (or, in a read-only
// workload, all clients share).
type model struct {
	docs []*doc
	byID map[nsf.UNID]*doc
}

func newModel(notes []*nsf.Note) *model {
	m := &model{byID: make(map[nsf.UNID]*doc, len(notes))}
	for _, n := range notes {
		m.add(n, 1)
	}
	return m
}

func (m *model) add(n *nsf.Note, seq uint32) *doc {
	d := &doc{}
	d.ack(n, seq)
	m.docs = append(m.docs, d)
	m.byID[d.unid()] = d
	return d
}

// remove drops docs[i], moving the last document into its place.
func (m *model) remove(i int) *doc {
	d := m.docs[i]
	last := len(m.docs) - 1
	m.docs[i] = m.docs[last]
	m.docs = m.docs[:last]
	delete(m.byID, d.unid())
	return d
}

// docMaker produces documents from a seed: a corpus straight from the
// workload generator, and then cheap variations of a pool of generated
// documents, so that making the next document to create costs a client
// next to nothing inside its closed loop. UNIDs come from the seed too.
type docMaker struct {
	gen  *workload.Generator
	rng  *rand.Rand
	tag  string
	pool []*nsf.Note
	made int
}

func newDocMaker(seed int64, tag string) *docMaker {
	return &docMaker{gen: workload.New(seed), rng: rand.New(rand.NewSource(seed ^ 0x5eed)), tag: tag}
}

func (m *docMaker) unid() nsf.UNID {
	var u nsf.UNID
	m.rng.Read(u[:])
	return u
}

// corpus generates count fresh documents.
func (m *docMaker) corpus(count int) []*nsf.Note {
	notes := m.gen.Corpus(count, bodyBytes)
	for _, n := range notes {
		n.OID.UNID = m.unid()
	}
	return notes
}

// next returns a new document: a pooled one under a fresh identity and a
// subject no other document has.
func (m *docMaker) next() *nsf.Note {
	if m.pool == nil {
		m.pool = m.gen.Corpus(256, bodyBytes)
	}
	n := m.pool[m.made%len(m.pool)].Clone()
	m.made++
	n.OID = nsf.OID{UNID: m.unid()}
	words := strings.SplitN(n.Text("Subject"), "#", 2)[0]
	n.SetWithFlags("Subject", nsf.TextValue(fmt.Sprintf("%s#%s-%d", words, m.tag, m.made)), nsf.FlagSummary)
	return n
}

// queries is the full-text query table: every author with every category,
// each a conjunction of two mid-sized posting lists that selects about one
// document in 128, so every search costs about the same whatever the seed
// draws.
func queries() []string {
	authors := []string{"ada", "bob", "carol", "dave", "erin", "frank", "grace", "heidi",
		"ivan", "judy", "ken", "lena", "mallory", "nick", "olivia", "peggy"}
	categories := []string{"sales", "engineering", "support", "marketing", "finance",
		"operations", "legal", "research"}
	var out []string
	for _, a := range authors {
		for _, c := range categories {
			out = append(out, a+" "+c)
		}
	}
	return out
}

// --- the clients' connection ---

// connCounters counts what crosses the clients' connections.
type connCounters struct {
	bytesIn, bytesOut, framesIn atomic.Int64
}

// countingConn counts bytes both ways and parses the length prefixes of
// the read stream to count response frames.
type countingConn struct {
	net.Conn
	c    *connCounters
	need int     // payload bytes left in the current frame
	hdr  [4]byte // length prefix accumulated so far
	hlen int
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.bytesOut.Add(int64(n))
	return n, err
}

// Read is called by one goroutine at a time (a client serialises its
// requests), so the frame parser needs no lock.
func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.bytesIn.Add(int64(n))
	for rest := b[:n]; len(rest) > 0; {
		if c.need > 0 {
			k := min(c.need, len(rest))
			c.need -= k
			rest = rest[k:]
			continue
		}
		k := copy(c.hdr[c.hlen:], rest)
		c.hlen += k
		rest = rest[k:]
		if c.hlen == len(c.hdr) {
			c.need = int(binary.LittleEndian.Uint32(c.hdr[:]))
			c.hlen = 0
			c.c.framesIn.Add(1)
		}
	}
	return n, err
}

func (c *connCounters) dial(network, addr string) (net.Conn, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: c}, nil
}

// dialFailover opens one client session the way a Notes client would: a
// failover client over the mates' addresses, one TCP connection.
func dialFailover(addrs []string, counters *connCounters) (*wire.FailoverClient, *wire.FailoverDB, error) {
	var opts wire.FailoverOptions
	if counters != nil {
		opts.Client.Dialer = counters.dial
	}
	fc, err := wire.DialFailover(addrs, userName, userSecret, opts)
	if err != nil {
		return nil, nil, err
	}
	db, err := fc.OpenDB(dbPath)
	if err != nil {
		fc.Close()
		return nil, nil, err
	}
	return fc, db, nil
}
