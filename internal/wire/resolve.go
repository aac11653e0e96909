package wire

import (
	"net"
	"time"
)

// ResolveInfo is a resolved placement record: where a database lives, stamped
// with the directory generation that produced it. A client caches these and
// treats any record with a higher generation (from a later resolve or a
// StatusWrongMate redirect) as strictly fresher.
type ResolveInfo struct {
	// Path is the database path the record describes.
	Path string
	// Generation is the placement generation; 0 with empty Homes means the
	// database is unplaced and any mate may serve it.
	Generation uint64
	// Replicas is the target replica factor.
	Replicas int
	// Homes lists the mates that home the database, with wire addresses
	// where the resolving server knows them.
	Homes []HomeAddr
}

// Unplaced reports whether the record says "no placement: served anywhere".
func (r ResolveInfo) Unplaced() bool { return r.Generation == 0 && len(r.Homes) == 0 }

// encoding of one resolve record (shared by OpResolve responses and
// StatusWrongMate redirect bodies):
//
//	Str(path) U64(generation) U32(replicas) U32(count) { Str(name) Str(addr) }*

// encResolveRecord appends one placement record.
func encResolveRecord(e *Enc, r ResolveInfo) *Enc {
	e.Str(r.Path).U64(r.Generation).U32(uint32(r.Replicas)).U32(uint32(len(r.Homes)))
	for _, h := range r.Homes {
		e.Str(h.Name).Str(h.Addr)
	}
	return e
}

// ResolveResp encodes an OpResolve response carrying recs.
func ResolveResp(recs ...ResolveInfo) *Enc {
	e := NewResp(OpResolve, StatusOK).U32(uint32(len(recs)))
	for _, r := range recs {
		encResolveRecord(e, r)
	}
	return e
}

// WrongMateResp encodes the StatusWrongMate redirect answering op: the
// placement record of the database the request addressed.
func WrongMateResp(op Op, r ResolveInfo) *Enc {
	return encResolveRecord(NewResp(op, StatusWrongMate), r)
}

// decResolveRecord parses one placement record.
func decResolveRecord(d *Dec) (ResolveInfo, error) {
	info := ResolveInfo{
		Path:       d.Str(),
		Generation: d.U64(),
		Replicas:   int(d.U32()),
	}
	count := int(d.U32())
	for i := 0; i < count && d.Err() == nil; i++ {
		info.Homes = append(info.Homes, HomeAddr{Name: d.Str(), Addr: d.Str()})
	}
	return info, d.Err()
}

// decWrongMate parses a StatusWrongMate response body into the redirect
// error. A malformed body still yields a usable (if empty) redirect: the
// client falls back to a full re-resolve.
func decWrongMate(op Op, d *Dec) *WrongMateError {
	info, err := decResolveRecord(d)
	if err != nil {
		return &WrongMateError{Op: op}
	}
	return &WrongMateError{Op: op, Path: info.Path, Generation: info.Generation, Homes: info.Homes}
}

// resolve is the OpResolve codec: the placement record for path, or every
// record the server knows for the empty path.
func (s session) resolve(path string) ([]ResolveInfo, error) {
	d, err := s.call(NewEnc(OpResolve).Str(path))
	if err != nil {
		return nil, err
	}
	return decResolveRecords(d)
}

// decResolveRecords parses an OpResolve response body.
func decResolveRecords(d *Dec) ([]ResolveInfo, error) {
	count := d.U32()
	// A record is at least a path length, generation, replicas and count.
	out := make([]ResolveInfo, 0, d.Cap(count, 17))
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		info, err := decResolveRecord(d)
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	return out, d.Err()
}

// Resolve asks the server where path lives.
func (s session) Resolve(path string) (ResolveInfo, error) {
	recs, err := s.resolve(path)
	if err != nil {
		return ResolveInfo{}, err
	}
	if len(recs) != 1 {
		return ResolveInfo{}, protoErrorf("resolve returned %d records for one path", len(recs))
	}
	return recs[0], nil
}

// Placements lists every placement record the server knows.
func (s session) Placements() ([]ResolveInfo, error) { return s.resolve("") }

// ResolvePlacement performs a one-shot, unauthenticated placement resolve
// against addr, like ProbeAvailability: dial, ask, close. Operator tooling
// uses it to inspect routing without credentials.
func ResolvePlacement(addr, path string, dialer func(network, addr string) (net.Conn, error), timeout time.Duration) (ResolveInfo, error) {
	c := probe(addr, dialer, timeout)
	defer c.Close()
	return c.Resolve(path)
}

// ListPlacements performs a one-shot, unauthenticated listing of every
// placement record addr knows.
func ListPlacements(addr string, dialer func(network, addr string) (net.Conn, error), timeout time.Duration) ([]ResolveInfo, error) {
	c := probe(addr, dialer, timeout)
	defer c.Close()
	return c.Placements()
}
