package server

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/repl"
	"repro/internal/wire"
)

// The replication mesh: scheduled epidemic replication over configured
// links (see package mesh). The server contributes the local side — its
// database set, its admission state, and a wire dialer that resolves peer
// names through the Peers map — and the mesh runs the link schedulers.

// LogMesh is the log kind for mesh scheduler events.
const LogMesh = "mesh"

// serverNode adapts the server to mesh.Node.
type serverNode struct{ s *Server }

func (n serverNode) Name() string { return n.s.opts.Name }

// Paths lists replicable databases: everything open except the
// server-private set (mail.box, log, catalog).
func (n serverNode) Paths() []string {
	var out []string
	for _, p := range n.s.Paths() {
		if localOnlyDBs[p] {
			continue
		}
		out = append(out, p)
	}
	return out
}

func (n serverNode) Open(path string) (*core.Database, error) {
	return n.s.OpenDB(path, core.Options{})
}

func (n serverNode) Admitted() bool { return !n.s.Draining() }

// wireSession adapts a dialed wire client to mesh.Session.
type wireSession struct{ c *wire.Client }

func (ws wireSession) Open(dbPath string) (repl.Peer, error) { return ws.c.OpenDB(dbPath) }
func (ws wireSession) Close() error                          { return ws.c.Close() }

// EnableMesh starts the replication mesh scheduler. The caller supplies
// tuning (intervals, breaker thresholds); the server fills in the node,
// the dialer (peer names resolve through the Peers map), conflict-merge
// policy, and logging. Links start empty — add them from config, a
// topology file, or the admin surface. Calling EnableMesh twice is an
// error; use Mesh() to reach the running scheduler.
func (s *Server) EnableMesh(opts mesh.Options) (*mesh.Mesh, error) {
	opts.Node = serverNode{s}
	opts.Dialer = mesh.DialFunc(func(peer string) (mesh.Session, error) {
		// Every op in the replication session carries the peer budget, so a
		// stalled mate fails the round instead of pinning it; the scheduler's
		// backoff and breaker then take over.
		c, err := s.dialPeer(peer, "", wire.Options{})
		if err != nil {
			return nil, err
		}
		return wireSession{c}, nil
	})
	opts.Apply.FieldMerge = s.opts.FieldMerge
	if opts.Logf == nil {
		opts.Logf = func(format string, args ...any) {
			s.logf(LogMesh, format, args...)
		}
	}
	m, err := mesh.New(opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		m.Close()
		return nil, fmt.Errorf("server: closed")
	}
	if s.mesh != nil {
		return nil, fmt.Errorf("server: mesh already enabled")
	}
	s.mesh = m
	return m, nil
}

// Mesh returns the running mesh scheduler, or nil if EnableMesh was not
// called.
func (s *Server) Mesh() *mesh.Mesh {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mesh
}

// stopMesh stops the mesh scheduler and waits for in-flight rounds.
func (s *Server) stopMesh() {
	s.mu.Lock()
	m := s.mesh
	s.mesh = nil
	s.mu.Unlock()
	if m != nil {
		m.Close()
	}
}
