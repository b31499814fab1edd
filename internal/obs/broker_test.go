package obs

import (
	"sync"
	"testing"
	"time"
)

func TestBrokerDeliversInOrder(t *testing.T) {
	j := NewJournal(16)
	sub := j.Subscribe(16)
	for i := 0; i < 10; i++ {
		j.Emit(Event{Type: EventEpoch, Epoch: i})
	}
	for i := 0; i < 10; i++ {
		select {
		case e := <-sub.C():
			if e.Seq != uint64(i+1) {
				t.Fatalf("delivery %d has seq %d, want %d", i, e.Seq, i+1)
			}
		case <-time.After(time.Second):
			t.Fatalf("timed out waiting for event %d", i)
		}
	}
	sub.Close()
	if n := j.Broker().Subscribers(); n != 0 {
		t.Fatalf("%d subscribers after Close, want 0", n)
	}
}

func TestBrokerStalledSubscriberEvictedWithDropsCounted(t *testing.T) {
	reg := NewRegistry()
	j := NewJournal(16)
	j.bindMetrics(reg)
	// A stalled subscriber: tiny buffer, never read from.
	stalled := j.Subscribe(2)
	// A healthy subscriber draining concurrently must see everything.
	healthy := j.Subscribe(4096)

	total := 2*DefaultEvictAfter + 10
	var seen int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range healthy.C() {
			seen++
			if seen == total {
				return
			}
		}
	}()

	start := time.Now()
	for i := 0; i < total; i++ {
		j.Emit(Event{Type: EventTaskDispatch, Task: i})
	}
	elapsed := time.Since(start)
	// Publishing must never block on the stalled subscriber; this is a
	// generous ceiling — a blocking send would hang forever.
	if elapsed > 5*time.Second {
		t.Fatalf("publishing %d events took %v — broker blocked", total, elapsed)
	}

	<-done
	if s := j.Broker().Subscribers(); s != 1 {
		t.Fatalf("%d subscribers left, want 1 (stalled one evicted)", s)
	}
	// The stalled channel must have been closed by the eviction.
	deadline := time.After(time.Second)
	var closed bool
	for !closed {
		select {
		case _, ok := <-stalled.C():
			closed = !ok
		case <-deadline:
			t.Fatal("stalled subscriber channel never closed")
		}
	}
	if stalled.Drops() == 0 {
		t.Fatal("stalled subscriber has no drops counted")
	}
	if got := reg.Counter("a4nn_events_dropped_total").Value(); got != stalled.Drops() {
		t.Fatalf("registry drop counter = %d, subscriber drops = %d", got, stalled.Drops())
	}
	if got := reg.Counter("a4nn_events_subscribers_evicted_total").Value(); got != 1 {
		t.Fatalf("evicted counter = %d, want 1", got)
	}
	// Eviction must not have lost events for the healthy subscriber.
	if seen != total {
		t.Fatalf("healthy subscriber saw %d/%d events", seen, total)
	}
	stalled.Close() // double-close after eviction must be safe
	healthy.Close()
}

// TestBrokerStressManySubscribers hammers one journal from several
// publishers into hundreds of subscribers (some reading, some
// stalled), under -race in ci. Publishing must finish promptly no
// matter how many subscribers stall.
func TestBrokerStressManySubscribers(t *testing.T) {
	reg := NewRegistry()
	j := NewJournal(1024)
	j.bindMetrics(reg)

	const (
		readers    = 100
		stalled    = 100
		publishers = 8
		perPub     = 500
	)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		sub := j.Subscribe(64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sub.C() { // drain until closed
			}
		}()
	}
	subs := make([]*Subscriber, 0, stalled)
	for i := 0; i < stalled; i++ {
		subs = append(subs, j.Subscribe(1)) // never read
	}

	var pubs sync.WaitGroup
	start := time.Now()
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for i := 0; i < perPub; i++ {
				j.Emit(Event{Type: EventTaskDispatch, Device: p, Task: i})
			}
		}(p)
	}
	pubs.Wait()
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("stress publish took %v", elapsed)
	}

	if got := j.LastSeq(); got != publishers*perPub {
		t.Fatalf("LastSeq = %d, want %d", got, publishers*perPub)
	}
	// Every stalled subscriber must be long evicted (a busy reader may
	// occasionally be evicted too under unlucky scheduling, so this is
	// a floor, not an exact count).
	if got := reg.Counter("a4nn_events_subscribers_evicted_total").Value(); got < stalled {
		t.Fatalf("evicted = %d, want >= %d", got, stalled)
	}
	if reg.Counter("a4nn_events_dropped_total").Value() == 0 {
		t.Fatal("no drops counted under stress")
	}

	// Close everything still attached so the reader goroutines exit
	// (Close after eviction is a safe no-op).
	for _, s := range subs {
		s.Close()
	}
	b := j.Broker()
	b.mu.Lock()
	remaining := make([]*Subscriber, 0, len(b.subs))
	for s := range b.subs {
		remaining = append(remaining, s)
	}
	b.mu.Unlock()
	for _, s := range remaining {
		s.Close()
	}
	wg.Wait()
}

func TestBrokerNilSafe(t *testing.T) {
	var b *Broker
	b.Publish(Event{}) // must not panic
	if b.Subscribe(1) != nil {
		t.Fatal("nil broker Subscribe should return nil")
	}
	if b.Subscribers() != 0 {
		t.Fatal("nil broker should have 0 subscribers")
	}
	var s *Subscriber
	s.Close()
	if s.Drops() != 0 {
		t.Fatal("nil subscriber drops should be 0")
	}
	if s.C() != nil {
		t.Fatal("nil subscriber channel should be nil")
	}
}

// Subscribers returns the number of attached subscribers.
func (b *Broker) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Drops returns how many events this subscriber missed to a full
// queue.
func (s *Subscriber) Drops() uint64 {
	if s == nil {
		return 0
	}
	return s.drops.Load()
}
