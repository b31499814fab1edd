package obs

import "math"

// readBatch bounds the events one Subscriber.Read copies out under the
// journal lock, so a reader far behind never holds Emit up for long.
const readBatch = 64

// Subscriber is a live reader of a journal: a cursor into the journal's
// ring (the position of the next event it has not read) and a wake
// channel the journal signals on every event, so publishing costs one
// non-blocking send per subscriber and copies nothing. A reader the
// ring laps is evicted and the events it missed are counted: a stalled
// reader never stalls Emit, and costs no memory while it lags.
type Subscriber struct {
	j    *Journal
	wake chan struct{} // capacity 1: a pending signal covers every later event

	next   uint64 // ring position of the next unread event; guarded by j.mu
	closed bool   // guarded by j.mu
	end    uint64 // once closed, the position it reads up to; guarded by j.mu
}

// Subscribe attaches a subscriber that reads every event from the next
// one on. Nil-safe: returns nil on a nil journal, and a nil
// Subscriber's methods are inert.
func (j *Journal) Subscribe() *Subscriber { return j.SubscribeSince(math.MaxUint64) }

// SubscribeSince attaches a subscriber that first reads the newest run
// of events still in the ring with Seq > seq, then every later one:
// replay and live delivery through one cursor. Nil-safe.
func (j *Journal) SubscribeSince(seq uint64) *Subscriber {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	p := j.ring.end
	for p > j.ring.start() && j.ring.at(p-1).Seq > seq {
		p--
	}
	return j.attach(p)
}

// attach registers a subscriber reading from ring position p. Caller
// holds j.mu.
func (j *Journal) attach(p uint64) *Subscriber {
	s := &Subscriber{j: j, wake: make(chan struct{}, 1), next: p}
	j.subs = append(j.subs, s)
	return s
}

// publish wakes every subscriber after a push into the ring, evicting
// each one the push overwrote an unread event of. Caller holds j.mu.
func (j *Journal) publish() {
	start := j.ring.start()
	for i := 0; i < len(j.subs); {
		s := j.subs[i]
		if s.next >= start {
			s.signal()
			i++
			continue
		}
		j.dropped.Add(int(j.ring.end - s.next))
		j.evicted.Inc()
		j.detach(i, s.next) // the last subscriber moves into slot i
	}
}

// detach closes j.subs[i] at ring position end, removes it from the
// list and wakes its reader. Caller holds j.mu.
func (j *Journal) detach(i int, end uint64) {
	s := j.subs[i]
	s.closed, s.end = true, end
	last := len(j.subs) - 1
	j.subs[i], j.subs[last] = j.subs[last], nil
	j.subs = j.subs[:last]
	s.signal()
}

// signal wakes the reader without blocking.
func (s *Subscriber) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Wake returns the channel signalled after each new event and when the
// subscriber closes; wait on it whenever Read returns an empty open
// batch. Nil on a nil subscriber, which blocks forever in a select —
// pair it with a context.
func (s *Subscriber) Wake() <-chan struct{} {
	if s == nil {
		return nil
	}
	return s.wake
}

// Read copies the unread events, oldest first and at most readBatch of
// them, into buf[:0] and moves the cursor past them. open turns false
// once the subscriber is closed (by its Close, its journal's Close or
// eviction) and has read everything published before that; until then
// an empty batch means nothing new yet. A nil subscriber is closed.
func (s *Subscriber) Read(buf []Event) (batch []Event, open bool) {
	batch = buf[:0]
	if s == nil {
		return batch, false
	}
	j := s.j
	j.mu.Lock()
	defer j.mu.Unlock()
	end := j.ring.end
	if s.closed {
		end = s.end
		// Only live readers are evicted: a closed one the ring has
		// lapped since loses the overwritten events, counted.
		if lost := min(j.ring.start(), end); s.next < lost {
			j.dropped.Add(int(lost - s.next))
			s.next = lost
		}
	}
	for ; s.next < end && len(batch) < readBatch; s.next++ {
		batch = append(batch, *j.ring.at(s.next))
	}
	return batch, len(batch) > 0 || !s.closed
}

// Close detaches the subscriber; it still reads what was published
// before the call. Safe after eviction and on a nil subscriber.
func (s *Subscriber) Close() {
	if s == nil {
		return
	}
	j := s.j
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, x := range j.subs {
		if x == s {
			j.detach(i, j.ring.end)
			return
		}
	}
}
