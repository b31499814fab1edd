package obs

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// readAll drains every event a subscriber can read now.
func readAll(s *Subscriber) (events []Event, open bool) {
	var batch []Event
	for {
		batch, open = s.Read(batch)
		events = append(events, batch...)
		if len(batch) == 0 {
			return events, open
		}
	}
}

func TestBrokerDeliversInOrder(t *testing.T) {
	reg := NewRegistry()
	j := NewJournal(256)
	j.bindMetrics(reg)
	sub := j.Subscribe()
	const n = 200 // inside the window, more than one Read batch
	for i := 0; i < n; i++ {
		j.Emit(Event{Type: EventEpoch, Epoch: i})
	}
	got, open := readAll(sub)
	if !open || len(got) != n {
		t.Fatalf("read %d events (open %v), want %d and open", len(got), open, n)
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d, want %d", i, e.Seq, i+1)
		}
	}
	if d, ev := reg.Counter("a4nn_events_dropped_total").Value(), reg.Counter("a4nn_events_subscribers_evicted_total").Value(); d != 0 || ev != 0 {
		t.Fatalf("dropped %d, evicted %d; want 0 and 0", d, ev)
	}

	// A closed subscriber still reads what was published before Close,
	// and nothing after.
	j.Emit(Event{Type: EventEpoch})
	sub.Close()
	j.Emit(Event{Type: EventEpoch})
	if got, open := readAll(sub); len(got) != 1 || got[0].Seq != n+1 || open {
		t.Fatalf("after Close read %+v (open %v), want seq %d then closed", got, open, n+1)
	}
	if len(j.subs) != 0 {
		t.Fatalf("%d subscribers after Close, want 0", len(j.subs))
	}
}

func TestBrokerSubscribeSinceReplaysThenGoesLive(t *testing.T) {
	j := NewJournal(16)
	for i := 0; i < 10; i++ {
		j.Emit(Event{Type: EventEpoch})
	}
	sub := j.SubscribeSince(7)
	defer sub.Close()
	j.Emit(Event{Type: EventEpoch})
	got, _ := readAll(sub)
	if len(got) != 4 || got[0].Seq != 8 || got[3].Seq != 11 {
		t.Fatalf("replay+live = %+v, want seqs 8..11", got)
	}
}

func TestBrokerStalledSubscriberEvictedWithDropsCounted(t *testing.T) {
	reg := NewRegistry()
	const window = 16
	j := NewJournal(window)
	j.bindMetrics(reg)
	stalled := j.Subscribe() // never read
	healthy := j.Subscribe() // drained every few events, always inside the window

	const total = 100
	var seen []Event
	start := time.Now()
	for i := 0; i < total; i++ {
		j.Emit(Event{Type: EventTaskDispatch, Task: i})
		if i%8 == 7 {
			got, _ := readAll(healthy)
			seen = append(seen, got...)
		}
	}
	// Emit must never wait on the stalled reader; a generous ceiling.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("emitting %d events took %v — a reader stalled Emit", total, elapsed)
	}
	got, _ := readAll(healthy)
	seen = append(seen, got...)
	if len(seen) != total {
		t.Fatalf("healthy subscriber saw %d/%d events", len(seen), total)
	}
	for i, e := range seen {
		if e.Seq != uint64(i+1) {
			t.Fatalf("healthy delivery %d has seq %d", i, e.Seq)
		}
	}

	// The push that overwrote the stalled reader's first unread event
	// (the window+1st) evicted it, counting all window+1 it never read.
	select {
	case <-stalled.Wake():
	default:
		t.Fatal("eviction did not wake the stalled reader")
	}
	if got, open := stalled.Read(nil); len(got) != 0 || open {
		t.Fatalf("evicted reader read %d events (open %v), want none and closed", len(got), open)
	}
	if got := reg.Counter("a4nn_events_dropped_total").Value(); got != window+1 {
		t.Fatalf("dropped = %d, want %d", got, window+1)
	}
	if got := reg.Counter("a4nn_events_subscribers_evicted_total").Value(); got != 1 {
		t.Fatalf("evicted = %d, want 1", got)
	}
	if len(j.subs) != 1 {
		t.Fatalf("%d subscribers left, want 1", len(j.subs))
	}
	stalled.Close() // Close after eviction is a no-op
	healthy.Close()
}

// follow reads s until it closes, waking on its channel; it returns the
// sequence numbers it read.
func follow(s *Subscriber) (seqs []uint64) {
	var batch []Event
	for {
		var open bool
		batch, open = s.Read(batch)
		for _, e := range batch {
			seqs = append(seqs, e.Seq)
		}
		if !open {
			return seqs
		}
		if len(batch) == 0 {
			<-s.Wake()
		}
	}
}

// TestBrokerStressManySubscribers hammers one journal from several
// emitters into hundreds of subscribers (some reading, some stalled),
// under -race in ci. Emitting must finish promptly no matter how many
// readers stall, and every reader sees a gap-free, ordered prefix of
// the stream.
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
	bad := make(chan string, readers)
	for i := 0; i < readers; i++ {
		sub := j.Subscribe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, seq := range follow(sub) {
				if seq != uint64(i+1) {
					bad <- "reader skipped or reordered an event"
					return
				}
			}
		}()
	}
	for i := 0; i < stalled; i++ {
		j.Subscribe()
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
		t.Fatalf("stress emit took %v", elapsed)
	}
	if got := j.LastSeq(); got != publishers*perPub {
		t.Fatalf("LastSeq = %d, want %d", got, publishers*perPub)
	}
	// Every stalled subscriber must be long evicted (a busy reader may
	// be evicted too under unlucky scheduling, so this is a floor).
	if got := reg.Counter("a4nn_events_subscribers_evicted_total").Value(); got < stalled {
		t.Fatalf("evicted = %d, want >= %d", got, stalled)
	}
	if reg.Counter("a4nn_events_dropped_total").Value() == 0 {
		t.Fatal("no drops counted under stress")
	}
	j.Close() // the remaining readers drain and return
	wg.Wait()
	close(bad)
	for msg := range bad {
		t.Fatal(msg)
	}
}

func TestBrokerNilSafe(t *testing.T) {
	var j *Journal
	if j.Subscribe() != nil || j.SubscribeSince(0) != nil {
		t.Fatal("nil journal should subscribe nothing")
	}
	var s *Subscriber
	s.Close()
	if got, open := s.Read(nil); len(got) != 0 || open {
		t.Fatal("nil subscriber should read nothing and be closed")
	}
	if s.Wake() != nil {
		t.Fatal("nil subscriber wake channel should be nil")
	}
}

// TestObserverSubscribeAllocs holds what opening the in-situ stack
// costs before the first event: the rings grow with the run, so a
// fresh observer and one subscriber stay a few KiB (they were ~6 MiB
// while every ring and subscriber queue was allocated at capacity).
func TestObserverSubscribeAllocs(t *testing.T) {
	const runs, budget = 16, 64 << 10
	keep := make([]*Subscriber, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewObserver().Journal().Subscribe()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Fatalf("NewObserver + Subscribe allocates %d bytes, budget %d", per, budget)
	}
}

// TestJournalRingAllocs pins the ring's growth: n events occupy
// ⌈n/ringBlock⌉ blocks, and once the ring has wrapped Emit allocates
// nothing.
func TestJournalRingAllocs(t *testing.T) {
	j := NewJournal(0)
	blocks := func() (n int) {
		for _, b := range j.ring.blocks {
			if b != nil {
				n++
			}
		}
		return n
	}
	e := Event{Type: EventEpoch, Model: "m", Epoch: 1}
	for n := 1; n <= DefaultJournalCapacity; n++ {
		j.Emit(e)
		if n%100 == 1 || n == DefaultJournalCapacity {
			if got, want := blocks(), (n+ringBlock-1)/ringBlock; got != want {
				t.Fatalf("%d events hold %d blocks, want %d", n, got, want)
			}
		}
	}
	if got := testing.AllocsPerRun(1000, func() { j.Emit(e) }); got != 0 {
		t.Fatalf("Emit into a wrapped ring allocates %v per event", got)
	}
}
