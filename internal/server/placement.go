package server

import (
	"context"
	"strings"

	"repro/internal/dir"
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
type wrongMateError struct{ rec wire.ResolveInfo }

func (e *wrongMateError) Error() string {
	names := make([]string, 0, len(e.rec.Homes))
	for _, h := range e.rec.Homes {
		names = append(names, h.Name)
	}
	return "not a home mate for " + e.rec.Path + " (homes: " + strings.Join(names, ",") + ")"
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

// resolveInfo is p as a placement record, its home set resolved to
// (name, addr) pairs.
func (s *Server) resolveInfo(p dir.Placement) wire.ResolveInfo {
	homes := make([]wire.HomeAddr, 0, len(p.Home))
	for _, name := range p.Home {
		homes = append(homes, wire.HomeAddr{Name: name, Addr: s.mateAddr(name)})
	}
	return wire.ResolveInfo{Path: p.Path, Generation: p.Generation, Replicas: p.Replicas, Homes: homes}
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
	return &wrongMateError{s.resolveInfo(p)}
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
		recs := make([]wire.ResolveInfo, len(ps))
		for i, p := range ps {
			recs[i] = s.resolveInfo(p)
		}
		return wire.ResolveResp(recs...), nil
	}
	key, err := cleanDBPath(path)
	if err != nil {
		return nil, err
	}
	rec := wire.ResolveInfo{Path: key} // unplaced
	if p, ok := s.opts.Directory.GetPlacement(key); ok {
		rec = s.resolveInfo(p)
	}
	return wire.ResolveResp(rec), nil
}
