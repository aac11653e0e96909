package changefeed

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nsf"
)

func unid(i int) nsf.UNID {
	var u nsf.UNID
	copy(u[:], fmt.Sprintf("u%014d", i))
	return u
}

func TestAppendRecordsStoreUSNs(t *testing.T) {
	f := New(16)
	defer f.Close()
	for i := 1; i <= 5; i++ {
		f.Append(uint64(i), Put, unid(i), nil)
		if f.LastUSN() != uint64(i) {
			t.Fatalf("after append %d LastUSN = %d", i, f.LastUSN())
		}
	}
	f.Append(3, Put, unid(9), nil) // out of order: ignored
	if f.LastUSN() != 5 {
		t.Errorf("LastUSN = %d", f.LastUSN())
	}
}

func TestSubscriberSeesEntriesInOrder(t *testing.T) {
	f := New(64)
	var mu sync.Mutex
	var got []uint64
	f.Subscribe("order", Funcs{ApplyFunc: func(e Entry) {
		mu.Lock()
		got = append(got, e.USN)
		mu.Unlock()
	}})
	const n = 50
	for i := 1; i <= n; i++ {
		f.Append(uint64(i), Put, unid(i), nil)
	}
	f.WaitForUSN(uint64(n))
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("applied %d entries, want %d", len(got), n)
	}
	for i, u := range got {
		if u != uint64(i+1) {
			t.Fatalf("out of order at %d: %d", i, u)
		}
	}
	f.Close()
}

func TestSubscriberStartsAtHead(t *testing.T) {
	f := New(16)
	defer f.Close()
	f.Append(1, Put, unid(1), nil)
	f.Append(2, Put, unid(2), nil)
	var applied atomic.Uint64
	f.Subscribe("late", Funcs{ApplyFunc: func(e Entry) { applied.Add(1) }})
	f.Append(3, Put, unid(3), nil)
	f.WaitForUSN(3)
	if applied.Load() != 1 {
		t.Errorf("late subscriber applied %d entries, want 1 (only the post-subscribe one)", applied.Load())
	}
}

func TestOverflowTriggersResync(t *testing.T) {
	f := New(4)
	block := make(chan struct{})
	var applies, resyncs atomic.Uint64
	started := make(chan struct{}, 1)
	f.Subscribe("slow", Funcs{
		ApplyFunc: func(e Entry) {
			select {
			case started <- struct{}{}:
			default:
			}
			if e.USN == 1 {
				<-block // stall so the ring laps us
			}
			applies.Add(1)
		},
		ResyncFunc: func(applied uint64) error {
			if applied != 1 {
				t.Errorf("resync from USN %d, want 1", applied)
			}
			resyncs.Add(1)
			return nil
		},
	})
	// First append, wait until the subscriber is inside Apply, then lap the
	// ring while it is stalled.
	f.Append(1, Put, unid(0), nil)
	<-started
	for i := 2; i <= 21; i++ {
		f.Append(uint64(i), Put, unid(i), nil)
	}
	close(block)
	f.WaitForUSN(21)
	if resyncs.Load() == 0 {
		t.Error("overflow did not trigger a resync")
	}
	st := f.Stats()
	if len(st.Subscribers) != 1 || st.Subscribers[0].Resyncs == 0 {
		t.Errorf("stats did not record resync: %+v", st)
	}
	f.Close()
}

func TestPanickingSubscriberIsDroppedNotFatal(t *testing.T) {
	f := New(16)
	defer f.Close()
	var healthy atomic.Uint64
	f.Subscribe("bomb", Funcs{ApplyFunc: func(e Entry) { panic("boom") }})
	f.Subscribe("healthy", Funcs{ApplyFunc: func(e Entry) { healthy.Add(1) }})
	f.Append(1, Put, unid(1), nil)
	f.Append(2, Put, unid(2), nil)
	// The barrier must not wedge on the dropped subscriber.
	done := make(chan struct{})
	go func() { f.WaitForUSN(2); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitForUSN wedged on a panicked subscriber")
	}
	if healthy.Load() != 2 {
		t.Errorf("healthy subscriber applied %d, want 2", healthy.Load())
	}
	var dropped bool
	for _, s := range f.Stats().Subscribers {
		if s.Name == "bomb" && s.Dropped {
			dropped = true
		}
	}
	if !dropped {
		t.Error("panicked subscriber not marked dropped")
	}
}

func TestResyncErrorDropsSubscriber(t *testing.T) {
	f := New(2)
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	f.Subscribe("failer", Funcs{
		ApplyFunc: func(e Entry) {
			select {
			case started <- struct{}{}:
			default:
			}
			if e.USN == 1 {
				<-block
			}
		},
		ResyncFunc: func(uint64) error { return errors.New("cannot rebuild") },
	})
	f.Append(1, Put, unid(0), nil)
	<-started
	for i := 2; i <= 11; i++ {
		f.Append(uint64(i), Put, unid(i), nil)
	}
	close(block)
	f.WaitForUSN(11) // must not wedge: the failed subscriber is dropped
	f.Close()
	for _, s := range f.Stats().Subscribers {
		if s.Name == "failer" && !s.Dropped {
			t.Error("failed resync did not drop subscriber")
		}
	}
}

func TestCloseDrainsSubscribers(t *testing.T) {
	f := New(1024)
	var applied atomic.Uint64
	f.Subscribe("drain", Funcs{ApplyFunc: func(e Entry) {
		time.Sleep(time.Microsecond)
		applied.Add(1)
	}})
	const n = 200
	for i := 1; i <= n; i++ {
		f.Append(uint64(i), Put, unid(i), nil)
	}
	f.Close()
	if applied.Load() != n {
		t.Errorf("close drained %d entries, want %d", applied.Load(), n)
	}
	// Appends after close are dropped, not fatal.
	f.Append(n+1, Put, unid(999), nil)
	if usn := f.LastUSN(); usn != n {
		t.Errorf("append after close moved LastUSN to %d", usn)
	}
}

func TestWaitForUSNWithNoSubscribers(t *testing.T) {
	f := New(8)
	defer f.Close()
	f.Append(1, Put, unid(1), nil)
	f.WaitForUSN(1) // must not block
}

func TestStatsLag(t *testing.T) {
	f := New(1024)
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	f.Subscribe("lagger", Funcs{ApplyFunc: func(e Entry) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-block
	}})
	for i := 1; i <= 10; i++ {
		f.Append(uint64(i), Put, unid(i), nil)
	}
	<-started
	st := f.Stats()
	if st.LastUSN != 10 || st.MaxLag == 0 {
		t.Errorf("stats = %+v, want LastUSN 10 and nonzero lag", st)
	}
	close(block)
	f.WaitForUSN(10)
	if st := f.Stats(); st.MaxLag != 0 {
		t.Errorf("lag after barrier = %d, want 0", st.MaxLag)
	}
	f.Close()
}

func TestConcurrentAppendersAndBarriers(t *testing.T) {
	f := New(256)
	var applied atomic.Uint64
	f.Subscribe("count", Funcs{ApplyFunc: func(e Entry) { applied.Add(1) }})
	var wg sync.WaitGroup
	// The commit mutex a database appends under: it hands out USNs in
	// append order.
	var commit sync.Mutex
	var last uint64
	const writers, per = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				commit.Lock()
				last++
				usn := last
				f.Append(usn, Put, unid(w*per+i), nil)
				commit.Unlock()
				if i%10 == 0 {
					f.WaitForUSN(usn)
				}
			}
		}(w)
	}
	wg.Wait()
	f.WaitForUSN(uint64(writers * per))
	if applied.Load() != writers*per {
		t.Errorf("applied %d, want %d", applied.Load(), writers*per)
	}
	f.Close()
}

// TestFirstAppendPastTheRing opens a feed over a store already at USN 100
// — far more than a ring ahead of the subscriber's zero cursor: the
// subscriber starts at the head, sees only the new entries, needs no
// resync, and a barrier on the store's USN returns before any append.
func TestFirstAppendPastTheRing(t *testing.T) {
	f := New(8)
	defer f.Close()
	var first, count atomic.Uint64
	f.Subscribe("tail", Funcs{
		ApplyFunc: func(e Entry) {
			first.CompareAndSwap(0, e.USN)
			count.Add(1)
		},
		ResyncFunc: func(uint64) error { return errors.New("no resync expected") },
	})
	f.WaitForUSN(100) // nothing appended yet: must not block
	f.Append(101, Put, unid(1), nil)
	f.Append(102, Delete, unid(1), nil)
	f.WaitForUSN(102)
	if first.Load() != 101 || count.Load() != 2 {
		t.Fatalf("subscriber saw first=%d count=%d, want 101/2", first.Load(), count.Load())
	}
	if st := f.Stats(); st.LastUSN != 102 || st.MaxLag != 0 || st.Subscribers[0].Resyncs != 0 || st.Subscribers[0].Dropped {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSubscriberSkipsUnappendedUSNs appends USNs 1, 2 and 5: Append takes
// increasing USNs, not necessarily consecutive ones. The subscriber applies
// exactly the three entries and reaches the head.
func TestSubscriberSkipsUnappendedUSNs(t *testing.T) {
	f := New(8)
	defer f.Close()
	var mu sync.Mutex
	var got []uint64
	f.Subscribe("gaps", Funcs{ApplyFunc: func(e Entry) {
		mu.Lock()
		got = append(got, e.USN)
		mu.Unlock()
	}})
	for _, usn := range []uint64{1, 2, 5} {
		f.Append(usn, Put, unid(int(usn)), nil)
	}
	f.WaitForUSN(5)
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(got) != "[1 2 5]" {
		t.Fatalf("applied %v, want [1 2 5]", got)
	}
}

func TestUnsubscribeStopsDeliveryAndLeavesRoster(t *testing.T) {
	f := New(16)
	defer f.Close()
	var applied atomic.Uint64
	sub := f.Subscribe("transient", Funcs{ApplyFunc: func(e Entry) { applied.Add(1) }})
	f.Append(1, Put, unid(1), nil)
	f.WaitForUSN(1)
	sub.Unsubscribe()
	sub.Unsubscribe() // idempotent
	// Give the consumer goroutine a chance to exit, then append more.
	deadline := time.Now().Add(2 * time.Second)
	for len(f.Stats().Subscribers) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber still on roster: %+v", f.Stats().Subscribers)
		}
		time.Sleep(time.Millisecond)
	}
	f.Append(2, Put, unid(2), nil)
	f.WaitForUSN(2) // must not wedge on the detached cursor
	if got := applied.Load(); got != 1 {
		t.Errorf("applied %d entries after unsubscribe, want 1", got)
	}
}

func TestUnsubscribeUnblocksWaiters(t *testing.T) {
	f := New(16)
	defer f.Close()
	release := make(chan struct{})
	sub := f.Subscribe("wedged", Funcs{ApplyFunc: func(e Entry) { <-release }})
	defer close(release)
	f.Append(1, Put, unid(1), nil)
	f.Append(2, Put, unid(2), nil)
	// The consumer is wedged inside entry 1; a barrier on 2 would block
	// forever. Unsubscribing must let the barrier pass.
	sub.Unsubscribe()
	done := make(chan struct{})
	go func() { f.WaitForUSN(2); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitForUSN still waits on an unsubscribed consumer")
	}
}

func TestUnsubscribeAfterClose(t *testing.T) {
	f := New(16)
	sub := f.Subscribe("late", Funcs{})
	f.Close()
	sub.Unsubscribe() // must not panic or deadlock
}
