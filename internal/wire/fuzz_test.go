package wire

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// frameSeed length-prefixes a payload the way WriteFrame does.
func frameSeed(payload []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadFrame throws arbitrary byte streams at the frame reader — the
// first thing every server connection and client response passes through.
// It must never panic, and any frame it accepts must round-trip through
// WriteFrame byte-identically.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameSeed(nil))
	f.Add(frameSeed([]byte{byte(OpHello)}))
	f.Add(frameSeed(NewEnc(OpGetNote).U32(1).Str("db.nsf").Bytes()))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255})
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// ReadFrame sizes its buffer from the length prefix before the body
		// arrives. Skip inputs that declare a legal-but-huge frame they never
		// deliver: they only exercise an io.ReadFull failure while costing
		// the fuzzer a giant allocation per execution.
		if len(data) >= 4 {
			if n := binary.LittleEndian.Uint32(data); n > 1<<20 && n <= MaxFrame {
				t.Skip()
			}
		}
		payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panicking is not
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, payload); err != nil {
			t.Fatalf("re-write of accepted frame failed: %v", err)
		}
		got, err := ReadFrame(&out)
		if err != nil {
			t.Fatalf("re-read of accepted frame failed: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("frame round trip changed the payload")
		}
	})
}

// encResolveRecord appends one placement record the way a server encodes
// it, for the round trip below.
func encResolveRecord(e *Enc, r ResolveInfo) {
	e.Str(r.Path).U64(r.Generation).U32(uint32(r.Replicas)).U32(uint32(len(r.Homes)))
	for _, h := range r.Homes {
		e.Str(h.Name).Str(h.Addr)
	}
}

// FuzzDecodePlacement throws arbitrary bodies at the two placement-record
// decoders the routing policy learns from: an OpResolve response and a
// StatusWrongMate redirect, both parsed from untrusted server bytes. They
// must never panic; records they accept must re-encode and decode to the
// same records; and a redirect carries exactly what its record says, or
// nothing when the record is malformed.
func FuzzDecodePlacement(f *testing.F) {
	// The Resolve response body of TestGoldenFrames: one record for
	// apps/x.nsf at generation 3, two replicas, homed on hub at h:1.
	golden := []byte{1, 0, 0, 0, 10}
	golden = append(golden, "apps/x.nsf"...)
	golden = append(golden, 3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 3)
	golden = append(golden, "hub"...)
	golden = append(golden, 3)
	golden = append(golden, "h:1"...)
	f.Add(golden)
	f.Add(golden[4:]) // the same record as a redirect body
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		if recs, err := decResolveRecords(NewDec(append([]byte(nil), body...))); err == nil {
			e := NewEnc(OpResolve).U32(uint32(len(recs)))
			for _, r := range recs {
				encResolveRecord(e, r)
			}
			again, err := decResolveRecords(NewDec(e.Bytes()[1:]))
			if err != nil || !slices.EqualFunc(recs, again, func(a, b ResolveInfo) bool {
				return a.Path == b.Path && a.Generation == b.Generation && a.Replicas == b.Replicas && slices.Equal(a.Homes, b.Homes)
			}) {
				t.Fatalf("records %+v re-decode as %+v (%v)", recs, again, err)
			}
		}
		wme := decWrongMate(OpGetNote, NewDec(append([]byte(nil), body...)))
		rec, err := decResolveRecord(NewDec(append([]byte(nil), body...)))
		if err != nil {
			rec = ResolveInfo{}
		}
		if wme.Op != OpGetNote || wme.Path != rec.Path || wme.Generation != rec.Generation || !slices.Equal(wme.Homes, rec.Homes) {
			t.Fatalf("redirect %+v does not carry its record %+v", wme, rec)
		}
	})
}
