package obs

import (
	"sync"
	"sync/atomic"
)

// Broker fan-out defaults.
const (
	// DefaultSubscriberBuffer is the per-subscriber queue depth.
	DefaultSubscriberBuffer = 256
	// DefaultEvictAfter is the number of *consecutive* dropped events
	// after which a subscriber is considered stalled and evicted. A
	// subscriber that drains even occasionally keeps its slot; one that
	// has stopped reading loses it after one buffer-and-a-bit of missed
	// traffic instead of leaking forever.
	DefaultEvictAfter = 64
)

// Broker is an in-process publish/subscribe fanout for events. Publish
// never blocks: each subscriber has a bounded queue, a full queue
// counts a drop, and a subscriber that drops too many events in a row
// is evicted (its channel is closed). This is what lets hundreds of
// dashboard connections watch a search without ever stalling the
// search loop.
type Broker struct {
	mu         sync.Mutex
	subs       map[*Subscriber]struct{}
	evictAfter int

	dropped *Counter // nil-safe accounting, bound by the journal
	evicted *Counter
}

// NewBroker returns an empty broker with the default eviction policy.
func NewBroker() *Broker {
	return &Broker{
		subs:       make(map[*Subscriber]struct{}),
		evictAfter: DefaultEvictAfter,
	}
}

// Subscriber is one receiver on a broker. Read events from C; the
// channel is closed when the subscriber is evicted or Close is called.
type Subscriber struct {
	ch     chan Event
	b      *Broker
	drops  atomic.Uint64
	consec int  // consecutive drops; guarded by b.mu
	closed bool // guarded by b.mu
}

// Subscribe registers a new subscriber with the given queue depth
// (DefaultSubscriberBuffer when buf <= 0).
func (b *Broker) Subscribe(buf int) *Subscriber {
	if b == nil {
		return nil
	}
	if buf <= 0 {
		buf = DefaultSubscriberBuffer
	}
	s := &Subscriber{ch: make(chan Event, buf), b: b}
	b.mu.Lock()
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	return s
}

// Publish delivers e to every subscriber that has queue room, counts a
// drop for each that does not, and evicts subscribers whose
// consecutive-drop count reaches the threshold. It never blocks.
func (b *Broker) Publish(e Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	var evict []*Subscriber
	for s := range b.subs {
		select {
		case s.ch <- e:
			s.consec = 0
		default:
			s.drops.Add(1)
			b.dropped.Inc()
			s.consec++
			if s.consec >= b.evictAfter {
				evict = append(evict, s)
			}
		}
	}
	for _, s := range evict {
		delete(b.subs, s)
		s.closed = true
		close(s.ch)
		b.evicted.Inc()
	}
	b.mu.Unlock()
}

// CloseAll evicts every subscriber, closing their channels, so blocked
// readers (SSE handlers, follow loops) return. New subscriptions after
// CloseAll still work — this is a tenant-teardown sweep, not a
// terminal shutdown. Nil-safe.
func (b *Broker) CloseAll() {
	if b == nil {
		return
	}
	b.mu.Lock()
	for s := range b.subs {
		delete(b.subs, s)
		s.closed = true
		close(s.ch)
	}
	b.mu.Unlock()
}

// C returns the subscriber's event channel (nil on a nil subscriber,
// which blocks forever in a select — pair it with a context).
func (s *Subscriber) C() <-chan Event {
	if s == nil {
		return nil
	}
	return s.ch
}

// Close detaches the subscriber and closes its channel. Safe to call
// after eviction and on a nil subscriber.
func (s *Subscriber) Close() {
	if s == nil {
		return
	}
	s.b.mu.Lock()
	if !s.closed {
		delete(s.b.subs, s)
		s.closed = true
		close(s.ch)
	}
	s.b.mu.Unlock()
}
