package wire

import "repro/internal/mesh"

// MeshStatus lists the server's replication-mesh links with their live
// scheduling and transfer counters.
func (s session) MeshStatus() ([]mesh.LinkStatus, error) {
	d, err := s.call(NewEnc(OpMeshStatus))
	if err != nil {
		return nil, err
	}
	count := d.U32()
	out := make([]mesh.LinkStatus, 0, d.Cap(count, 1))
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		out = append(out, d.MeshLinkStatus())
	}
	return out, d.Err()
}

// MeshAdd adds a replication-mesh link on the server. The server validates
// the link (including compiling its selection formula) before starting it.
// Not re-sent after a lost response: the link may exist by then, and the
// re-sent add would answer "duplicate link" for an add that succeeded.
func (s session) MeshAdd(l mesh.Link) error {
	_, err := s.call(NewEnc(OpMeshAdd).MeshLink(l))
	return err
}

// MeshRemove removes a replication-mesh link by name. Not re-sent after a
// lost response, like MeshAdd: the re-sent remove would answer "no such
// link" for a remove that succeeded.
func (s session) MeshRemove(name string) error {
	_, err := s.call(NewEnc(OpMeshRemove).Str(name))
	return err
}
