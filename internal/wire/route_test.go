package wire

import (
	"errors"
	"io"
	"slices"
	"testing"
	"time"
)

// The routing policy does no I/O, so these tests need no listener: they
// build a failover client that has never dialed, set its mates' state by
// hand, and read what the policy ranks and what it records.

const routeCooldown = time.Second

// routeFixture is a policy over mates "a", "b" and "c", in that configured
// order, with the breaker threshold defaultFailThreshold (2).
func routeFixture() *FailoverClient {
	return newFailover([]string{"a", "b", "c"}, "u", "s", FailoverOptions{Cooldown: routeCooldown})
}

// place opens path on the policy for the first time and teaches it homes.
func place(fc *FailoverClient, path string, gen uint64, homes ...HomeAddr) *RemoteDB {
	fc.firstOpen(path)
	fc.learn(path, gen, homes)
	return &RemoteDB{path: path}
}

// TestRankOrdersCandidates: the candidate order of a turn over the mate
// states the policy knows — breaker, restriction, availability, placement —
// and which candidates must answer a half-open probe before a dial.
func TestRankOrdersCandidates(t *testing.T) {
	ago := func(d time.Duration) time.Time { return time.Now().Add(-d) }
	cases := []struct {
		name  string
		setup func(fc *FailoverClient) *RemoteDB
		want  []candidate
	}{
		{"fresh mates keep the configured order",
			func(*FailoverClient) *RemoteDB { return nil },
			[]candidate{{"a", false}, {"b", false}, {"c", false}}},
		{"higher availability first",
			func(fc *FailoverClient) *RemoteDB {
				fc.mates[0].avail, fc.mates[1].avail, fc.mates[2].avail = 10, 90, 50
				return nil
			},
			[]candidate{{"b", false}, {"c", false}, {"a", false}}},
		{"breaker open inside its cooldown goes last, probed",
			func(fc *FailoverClient) *RemoteDB {
				fc.mates[0].open, fc.mates[0].reopens, fc.mates[0].openedAt = true, 1, ago(0)
				return nil
			},
			[]candidate{{"b", false}, {"c", false}, {"a", true}}},
		{"breaker open past its cooldown keeps its place, probed",
			func(fc *FailoverClient) *RemoteDB {
				fc.mates[0].open, fc.mates[0].reopens, fc.mates[0].openedAt = true, 1, ago(2*routeCooldown)
				return nil
			},
			[]candidate{{"a", true}, {"b", false}, {"c", false}}},
		{"a reopened breaker waits a doubled cooldown",
			func(fc *FailoverClient) *RemoteDB {
				fc.mates[0].open, fc.mates[0].reopens, fc.mates[0].openedAt = true, 2, ago(routeCooldown*3/2)
				return nil
			},
			[]candidate{{"b", false}, {"c", false}, {"a", true}}},
		{"restricted goes last, probed",
			func(fc *FailoverClient) *RemoteDB {
				fc.mates[1].restricted = true
				return nil
			},
			[]candidate{{"a", false}, {"c", false}, {"b", true}}},
		{"home set matched by address",
			func(fc *FailoverClient) *RemoteDB { return place(fc, "x.nsf", 3, HomeAddr{Name: "spoke", Addr: "c"}) },
			[]candidate{{"c", false}, {"a", false}, {"b", false}}},
		{"home set matched by learned name",
			func(fc *FailoverClient) *RemoteDB {
				fc.learn("other.nsf", 1, []HomeAddr{{Name: "spoke", Addr: "c"}})
				return place(fc, "x.nsf", 3, HomeAddr{Name: "spoke"})
			},
			[]candidate{{"c", false}, {"a", false}, {"b", false}}},
		{"a home mate with an open breaker still precedes non-homes",
			func(fc *FailoverClient) *RemoteDB {
				fc.mates[2].open, fc.mates[2].reopens, fc.mates[2].openedAt = true, 1, ago(0)
				return place(fc, "x.nsf", 3, HomeAddr{Addr: "c"})
			},
			[]candidate{{"c", true}, {"a", false}, {"b", false}}},
		{"unplaced: any mate serves",
			func(fc *FailoverClient) *RemoteDB {
				fc.mates[0].avail = 40
				return place(fc, "x.nsf", 0)
			},
			[]candidate{{"b", false}, {"c", false}, {"a", false}}},
		{"placement of another path does not bias",
			func(fc *FailoverClient) *RemoteDB {
				place(fc, "x.nsf", 3, HomeAddr{Addr: "c"})
				return &RemoteDB{path: "y.nsf"}
			},
			[]candidate{{"a", false}, {"b", false}, {"c", false}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fc := routeFixture()
			if got := fc.rank(tc.setup(fc)); !slices.Equal(got, tc.want) {
				t.Errorf("rank = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestSpentTurnRecords: what a spent turn teaches the policy, and when it
// sends the operation elsewhere.
func TestSpentTurnRecords(t *testing.T) {
	t.Run("a shed records the mate's index", func(t *testing.T) {
		fc := routeFixture()
		if !fc.spent("a", verdictShed, &BusyError{State: StateRestricted, Availability: 7}, 0) {
			t.Error("a shed turn did not move the operation")
		}
		if m := fc.mates[0]; m.avail != 7 || !m.restricted || m.fails != 0 {
			t.Errorf("mate a = %+v, want index 7, restricted, no breaker failure", *m)
		}
		if fc.stats.BusyRedirects != 1 {
			t.Errorf("BusyRedirects = %d, want 1", fc.stats.BusyRedirects)
		}
	})

	t.Run("a redirect is adopted only at a fresher generation", func(t *testing.T) {
		fc := routeFixture()
		db := place(fc, "x.nsf", 5, HomeAddr{Addr: "b"})
		stale := &WrongMateError{Path: "x.nsf", Generation: 3, Homes: []HomeAddr{{Name: "delta", Addr: "d"}}}
		if !fc.spent("a", verdictMisrouted, stale, 0) {
			t.Error("a redirected turn did not move the operation")
		}
		if p := fc.places["x.nsf"]; p.gen != 5 || !slices.Equal(p.homes, []HomeAddr{{Addr: "b"}}) {
			t.Errorf("stale redirect adopted: placement gen %d homes %v, want gen 5 homes [b]", p.gen, p.homes)
		}
		// Even a stale record teaches an address the client was not given.
		if m := fc.mate("d"); m == nil || m.name != "delta" || m.avail != 100 {
			t.Fatalf("mate d = %v, want learned as delta with index 100", m)
		}
		fresh := &WrongMateError{Path: "x.nsf", Generation: 7, Homes: []HomeAddr{{Name: "delta", Addr: "d"}}}
		fc.spent("a", verdictMisrouted, fresh, 1)
		if p := fc.places["x.nsf"]; p.gen != 7 || !slices.Equal(p.homes, fresh.Homes) {
			t.Errorf("fresh redirect not adopted: placement gen %d homes %v", p.gen, p.homes)
		}
		if got := fc.rank(db); got[0].addr != "d" {
			t.Errorf("rank after redirect = %v, want the learned home d first", got)
		}
		if err := fc.vet(db, "a"); !errors.Is(err, ErrWrongMate) {
			t.Errorf("vet(a) = %v, want the redirect the server would send", err)
		}
		if err := fc.vet(db, "d"); err != nil {
			t.Errorf("vet(d) = %v, want nil on a home mate", err)
		}
		if fc.stats.WrongMateRedirects != 2 {
			t.Errorf("WrongMateRedirects = %d, want 2", fc.stats.WrongMateRedirects)
		}
	})

	t.Run("breaker failures", func(t *testing.T) {
		fc := routeFixture()
		for _, f := range []struct {
			mate      string
			v         verdict
			err       error
			wantFails int
		}{
			{"a", verdictSevered, io.EOF, 1},
			{"a", verdictSevered, io.EOF, 2},
			{"b", verdictExpired, &DeadlineError{Ambiguous: true}, 1},               // local, mid-op: a stalled mate
			{"b", verdictExpired, &DeadlineError{}, 1},                              // local, pre-send: says nothing
			{"c", verdictExpired, &DeadlineError{Remote: true, Ambiguous: true}, 0}, // the mate answered
			{"c", verdictFatal, &ServerError{Msg: "denied"}, 0},
		} {
			fc.spent(f.mate, f.v, f.err, 0)
			if m := fc.mate(f.mate); m.fails != f.wantFails {
				t.Errorf("after %v on %s: fails = %d, want %d", f.err, f.mate, m.fails, f.wantFails)
			}
		}
		if a := fc.mates[0]; !a.open || a.reopens != 1 {
			t.Errorf("mate a = %+v, want its breaker open after defaultFailThreshold severed turns", *a)
		}
		if fc.stats.Failovers != 2 {
			t.Errorf("Failovers = %d, want 2 (severed turns only)", fc.stats.Failovers)
		}
		fc.served("a")
		if a := fc.mates[0]; a.fails != 0 || a.reopens != 0 {
			t.Errorf("mate a after a served op = %+v, want its counts reset", *a)
		}
	})

	t.Run("expiries and application errors stay put", func(t *testing.T) {
		fc := routeFixture()
		if fc.spent("a", verdictExpired, &DeadlineError{Ambiguous: true}, 0) ||
			fc.spent("a", verdictFatal, &ServerError{}, 0) {
			t.Error("an expired or failed turn moved the operation")
		}
	})

	t.Run("at most two moves per mate", func(t *testing.T) {
		fc := routeFixture()
		shed := &BusyError{Availability: 10}
		if !fc.spent("a", verdictShed, shed, 2*3-1) || fc.spent("a", verdictShed, shed, 2*3) {
			t.Error("hop bound is not 2 x mates")
		}
		lone := newFailover([]string{"a"}, "u", "s", FailoverOptions{})
		if lone.spent("a", verdictShed, shed, 0) || lone.spent("a", verdictSevered, io.EOF, 0) {
			t.Error("a lone mate moved the operation")
		}
	})
}

// TestProbeAndOpenRecords: a half-open probe's answer, and the once-per-path
// resolve of a first open.
func TestProbeAndOpenRecords(t *testing.T) {
	fc := routeFixture()
	a := fc.mates[0]
	a.open, a.fails, a.reopens = true, 2, 1
	if err := fc.probed("a", AvailabilityInfo{}, io.EOF); err == nil || !a.open || a.fails != 3 {
		t.Errorf("unanswered probe: err %v, mate %+v, want an error and one more breaker failure", err, *a)
	}
	if err := fc.probed("a", AvailabilityInfo{State: StateRestricted}, nil); err == nil || !a.restricted || !a.open {
		t.Errorf("restricted probe: err %v, mate %+v, want a veto and the breaker still open", err, *a)
	}
	if err := fc.probed("a", AvailabilityInfo{State: StateOpen, Index: 60}, nil); err != nil || a.open || a.restricted || a.avail != 60 {
		t.Errorf("answered probe: err %v, mate %+v, want the breaker closed at index 60", err, *a)
	}
	if fc.stats.Probes != 3 {
		t.Errorf("Probes = %d, want 3", fc.stats.Probes)
	}

	if !fc.firstOpen("x.nsf") || fc.firstOpen("x.nsf") || fc.stats.Resolves != 1 {
		t.Errorf("firstOpen resolves a path %d times, want once", fc.stats.Resolves)
	}
	if err := fc.vet(&RemoteDB{path: "x.nsf"}, "a"); err != nil {
		t.Errorf("vet before any placement is known = %v, want nil", err)
	}
}

// TestFixedRouteNeverLearns: a bare client's policy is its one address,
// whatever it is told.
func TestFixedRouteNeverLearns(t *testing.T) {
	r := fixedRoute("a")
	r.learn("x.nsf", 9, []HomeAddr{{Addr: "b"}})
	if r.firstOpen("x.nsf") || r.spent("a", verdictMisrouted, &WrongMateError{Homes: []HomeAddr{{Addr: "b"}}}, 0) {
		t.Error("fixedRoute resolved or moved")
	}
	if got := r.rank(&RemoteDB{path: "x.nsf"}); !slices.Equal(got, []candidate{{"a", false}}) {
		t.Errorf("rank = %v, want [a]", got)
	}
}
