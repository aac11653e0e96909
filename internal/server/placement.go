package server

import (
	"context"
	"strings"

	"repro/internal/wire"
)

// Placement enforcement: the directory maps each database to its home mates
// (dir.Placement); a mate that does not home a database refuses to serve it
// with a StatusWrongMate redirect carrying the current generation and home
// set. OpResolve answers placement queries pre-auth (like OpAvailability) so
// failover clients and operator tooling can locate databases without a
// session, even while the server drains.

// wrongMateError is the internal form of a placement redirect; dispatch
// converts it into a StatusWrongMate response instead of StatusError.
type wrongMateError struct {
	path     string
	gen      uint64
	replicas int
	homes    []wire.HomeAddr
}

func (e *wrongMateError) Error() string {
	names := make([]string, 0, len(e.homes))
	for _, h := range e.homes {
		names = append(names, h.Name)
	}
	return "not a home mate for " + e.path + " (homes: " + strings.Join(names, ",") + ")"
}

// resp renders the redirect for op, body-compatible with an OpResolve record.
func (e *wrongMateError) resp(op wire.Op) *wire.Enc {
	resp := wire.NewResp(op, wire.StatusWrongMate)
	encResolveRecord(resp, e.path, e.gen, e.replicas, e.homes)
	return resp
}

// encResolveRecord appends one placement record in the OpResolve encoding.
func encResolveRecord(resp *wire.Enc, path string, gen uint64, replicas int, homes []wire.HomeAddr) {
	resp.Str(path).U64(gen).U32(uint32(replicas)).U32(uint32(len(homes)))
	for _, h := range homes {
		resp.Str(h.Name).Str(h.Addr)
	}
}

// AdvertiseAddr is the address this server tells clients to reach it on:
// Options.AdvertiseAddr if set, otherwise the bound listener address.
func (s *Server) AdvertiseAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.advertiseLocked()
}

func (s *Server) advertiseLocked() string {
	if s.opts.AdvertiseAddr != "" {
		return s.opts.AdvertiseAddr
	}
	if s.ln != nil {
		return s.ln.Addr().String()
	}
	return ""
}

// mateAddr maps a cluster-mate name to its wire address: self resolves to
// the advertise address, peers through the peer map. Unknown mates yield "".
func (s *Server) mateAddr(name string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if strings.EqualFold(name, s.opts.Name) {
		return s.advertiseLocked()
	}
	return s.opts.Peers[strings.ToLower(name)]
}

// homeAddrs resolves a placement home set to (name, addr) pairs.
func (s *Server) homeAddrs(home []string) []wire.HomeAddr {
	out := make([]wire.HomeAddr, 0, len(home))
	for _, name := range home {
		out = append(out, wire.HomeAddr{Name: name, Addr: s.mateAddr(name)})
	}
	return out
}

// checkHomed returns a wrongMateError when a placement record exists for
// path and this server is not in its home set. No record means unplaced:
// every mate serves it (the pre-placement behavior). Server-private
// databases are never placed.
func (s *Server) checkHomed(cleanPath string) error {
	if localOnlyDBs[cleanPath] {
		return nil
	}
	p, ok := s.opts.Directory.GetPlacement(cleanPath)
	if !ok || p.HasHome(s.opts.Name) {
		return nil
	}
	return &wrongMateError{
		path:     cleanPath,
		gen:      p.Generation,
		replicas: p.Replicas,
		homes:    s.homeAddrs(p.Home),
	}
}

// resolve answers OpResolve: one record for a named path, every record for
// the empty path. Unplaced databases answer generation 0 with no homes
// ("served anywhere") rather than erroring, so clients need no special case.
func (c *connState) resolve(_ context.Context, d *wire.Dec) (*wire.Enc, error) {
	s := c.s
	path := d.Str()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if strings.TrimSpace(path) == "" {
		ps := s.opts.Directory.Placements()
		resp := wire.NewResp(wire.OpResolve, wire.StatusOK).U32(uint32(len(ps)))
		for _, p := range ps {
			encResolveRecord(resp, p.Path, p.Generation, p.Replicas, s.homeAddrs(p.Home))
		}
		return resp, nil
	}
	key, err := cleanDBPath(path)
	if err != nil {
		return nil, err
	}
	resp := wire.NewResp(wire.OpResolve, wire.StatusOK).U32(1)
	if p, ok := s.opts.Directory.GetPlacement(key); ok {
		encResolveRecord(resp, p.Path, p.Generation, p.Replicas, s.homeAddrs(p.Home))
	} else {
		encResolveRecord(resp, key, 0, 0, nil)
	}
	return resp, nil
}
