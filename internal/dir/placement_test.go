package dir

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

func TestGroupDisplayNamePreservesCasing(t *testing.T) {
	d := New()
	d.AddUser(User{Name: "alice"})
	d.AddGroup("Core Team", "alice")
	d.AddGroup("ENG", "Core Team")

	got := d.GroupsOf("alice")
	want := []string{"Core Team", "ENG"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GroupsOf(alice) = %v, want registered capitalization %v", got, want)
	}
	// Re-registering with different casing updates the display name.
	d.AddGroup("eng", "Core Team")
	got = d.GroupsOf("alice")
	want = []string{"Core Team", "eng"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GroupsOf after re-register = %v, want %v", got, want)
	}
}

func TestPlacementCRUD(t *testing.T) {
	d := New()
	if _, ok := d.GetPlacement("mail/ada.nsf"); ok {
		t.Fatal("GetPlacement found a record in an empty directory")
	}
	p, err := d.SetPlacement("mail/ada.nsf", []string{"alpha", "beta", "alpha", " "}, 0)
	if err != nil {
		t.Fatalf("SetPlacement: %v", err)
	}
	if p.Generation != 1 || !reflect.DeepEqual(p.Home, []string{"alpha", "beta"}) || p.Replicas != 2 {
		t.Fatalf("SetPlacement = %+v", p)
	}
	got, ok := d.GetPlacement("MAIL/ADA.NSF") // case-insensitive key
	if !ok || got.Generation != 1 {
		t.Fatalf("GetPlacement = %+v, %v", got, ok)
	}
	if !got.HasHome("ALPHA") || got.HasHome("gamma") {
		t.Errorf("HasHome wrong: %+v", got)
	}
	// Snapshot isolation: mutating the returned slice must not leak in.
	got.Home[0] = "evil"
	again, _ := d.GetPlacement("mail/ada.nsf")
	if again.Home[0] != "alpha" {
		t.Error("GetPlacement returned an aliased home slice")
	}

	d.SetPlacement("apps/db.nsf", []string{"gamma"}, 1)
	all := d.Placements()
	if len(all) != 2 || all[0].Path != "apps/db.nsf" || all[1].Path != "mail/ada.nsf" {
		t.Fatalf("Placements = %+v", all)
	}

	d.RemovePlacement("apps/db.nsf")
	if _, ok := d.GetPlacement("apps/db.nsf"); ok {
		t.Error("RemovePlacement left the record")
	}
}

func TestUpdatePlacementCAS(t *testing.T) {
	d := New()
	p, _ := d.SetPlacement("mail/ada.nsf", []string{"alpha"}, 1)

	// Wrong generation loses.
	if _, err := d.UpdatePlacement("mail/ada.nsf", p.Generation+5, []string{"beta"}); !errors.Is(err, ErrPlacementConflict) {
		t.Fatalf("stale CAS err = %v, want ErrPlacementConflict", err)
	}
	// Right generation wins and bumps.
	p2, err := d.UpdatePlacement("mail/ada.nsf", p.Generation, []string{"beta"})
	if err != nil {
		t.Fatalf("UpdatePlacement: %v", err)
	}
	if p2.Generation != p.Generation+1 || p2.Home[0] != "beta" {
		t.Fatalf("UpdatePlacement = %+v", p2)
	}
	// The old generation is now dead.
	if _, err := d.UpdatePlacement("mail/ada.nsf", p.Generation, []string{"gamma"}); !errors.Is(err, ErrPlacementConflict) {
		t.Fatalf("replayed CAS err = %v, want ErrPlacementConflict", err)
	}
	// expectGen 0 means create-only.
	if _, err := d.UpdatePlacement("mail/ada.nsf", 0, []string{"gamma"}); !errors.Is(err, ErrPlacementConflict) {
		t.Fatalf("create-over-existing err = %v, want ErrPlacementConflict", err)
	}
	if p3, err := d.UpdatePlacement("new.nsf", 0, []string{"gamma"}); err != nil || p3.Generation != 1 {
		t.Fatalf("create via CAS = %+v, %v", p3, err)
	}
}

func TestUpdatePlacementExactlyOneWinnerPerGeneration(t *testing.T) {
	d := New()
	p, _ := d.SetPlacement("mail/ada.nsf", []string{"alpha"}, 1)
	const racers = 16
	var wg sync.WaitGroup
	wins := make(chan int, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := d.UpdatePlacement("mail/ada.nsf", p.Generation, []string{"beta"}); err == nil {
				wins <- i
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	n := 0
	for range wins {
		n++
	}
	if n != 1 {
		t.Fatalf("%d racers won generation %d, want exactly 1", n, p.Generation)
	}
}

func TestRendezvousHome(t *testing.T) {
	mates := []string{"alpha", "beta", "gamma"}
	h1 := RendezvousHome("mail/ada.nsf", mates, 2)
	h2 := RendezvousHome("mail/ada.nsf", []string{"gamma", "alpha", "beta"}, 2)
	if len(h1) != 2 {
		t.Fatalf("RendezvousHome len = %d", len(h1))
	}
	sortCopy := func(s []string) []string {
		out := append([]string(nil), s...)
		for i := range out {
			for j := i + 1; j < len(out); j++ {
				if out[j] < out[i] {
					out[i], out[j] = out[j], out[i]
				}
			}
		}
		return out
	}
	if !reflect.DeepEqual(sortCopy(h1), sortCopy(h2)) {
		t.Errorf("RendezvousHome not order-independent: %v vs %v", h1, h2)
	}
	// Deterministic across calls.
	if !reflect.DeepEqual(h1, RendezvousHome("mail/ada.nsf", mates, 2)) {
		t.Error("RendezvousHome not deterministic")
	}
	// Removing a non-chosen mate must not disturb the assignment.
	var other string
	for _, m := range mates {
		chosen := false
		for _, h := range h1 {
			if h == m {
				chosen = true
			}
		}
		if !chosen {
			other = m
		}
	}
	reduced := RendezvousHome("mail/ada.nsf", []string{h1[0], h1[1]}, 2)
	_ = other
	if !reflect.DeepEqual(sortCopy(reduced), sortCopy(h1)) {
		t.Errorf("removing unchosen mate disturbed placement: %v vs %v", reduced, h1)
	}
	// Replica factor clamps to the mate count.
	if got := RendezvousHome("x.nsf", []string{"alpha"}, 5); len(got) != 1 {
		t.Errorf("clamp failed: %v", got)
	}
	if RendezvousHome("x.nsf", nil, 1) != nil {
		t.Error("no mates should yield nil")
	}
	// Distribution sanity: over many paths each of 3 mates gets some share.
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		h := RendezvousHome(pathN(i), mates, 1)
		counts[h[0]]++
	}
	for _, m := range mates {
		if counts[m] < 30 {
			t.Errorf("mate %s got only %d/300 single-replica placements: %v", m, counts[m], counts)
		}
	}
}

func pathN(i int) string {
	return "mail/user" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + ".nsf"
}

func TestAssignPlacement(t *testing.T) {
	d := New()
	p1, err := d.AssignPlacement("mail/ada.nsf", []string{"alpha", "beta", "gamma"}, 2)
	if err != nil {
		t.Fatalf("AssignPlacement: %v", err)
	}
	if len(p1.Home) != 2 || p1.Generation != 1 {
		t.Fatalf("AssignPlacement = %+v", p1)
	}
	// Existing records are kept, not reassigned.
	p2, err := d.AssignPlacement("mail/ada.nsf", []string{"delta"}, 1)
	if err != nil || !reflect.DeepEqual(p2.Home, p1.Home) || p2.Generation != p1.Generation {
		t.Fatalf("AssignPlacement over existing = %+v, %v", p2, err)
	}
	if _, err := d.AssignPlacement("x.nsf", nil, 1); err == nil {
		t.Error("AssignPlacement with no mates accepted")
	}
}

func TestPlacementVersionBumps(t *testing.T) {
	d := New()
	v0 := d.PlacementVersion()
	d.SetPlacement("a.nsf", []string{"alpha"}, 1)
	v1 := d.PlacementVersion()
	if v1 <= v0 {
		t.Fatalf("version not bumped on set: %d -> %d", v0, v1)
	}
	d.UpdatePlacement("a.nsf", 1, []string{"beta"})
	v2 := d.PlacementVersion()
	if v2 <= v1 {
		t.Fatalf("version not bumped on update: %d -> %d", v1, v2)
	}
	d.RemovePlacement("a.nsf")
	if d.PlacementVersion() <= v2 {
		t.Fatal("version not bumped on remove")
	}
	d.RemovePlacement("a.nsf") // no-op: no bump
	if d.PlacementVersion() != v2+1 {
		t.Fatal("no-op remove bumped version")
	}
}
