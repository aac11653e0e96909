package store

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/nsf"
)

// TestScanCancelledMidwayStopsAndReleasesLatch: cancelling the context
// while a scan is in flight stops it at the next batch boundary with the
// context's error, and the read latch is demonstrably free afterwards — a
// write proceeds immediately.
func TestScanCancelledMidwayStopsAndReleasesLatch(t *testing.T) {
	s, _ := openTestStore(t, Options{Title: "cancel"})
	c := clock.New()
	// Three batches' worth, so cancellation after the first batch has
	// work left to skip.
	for i := 0; i < 3*scanBatch; i++ {
		if err := s.Put(makeNote(c, fmt.Sprintf("doc %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	visited := 0
	err := scanFrom(ctx, s, 0, nil, func(n *nsf.Note) bool {
		visited++
		if visited == 1 {
			cancel() // mid-scan: the first batch is being delivered
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
	}
	if visited > scanBatch {
		t.Errorf("cancelled scan visited %d notes, want at most one batch (%d)", visited, scanBatch)
	}
	// The latch must be free: a write completes promptly.
	done := make(chan error, 1)
	go func() { done <- s.Put(makeNote(c, "after-cancel")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after cancelled scan: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write blocked after cancelled scan — latch not released")
	}
}
