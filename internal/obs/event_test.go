package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestJournalSeqAndSince(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 5; i++ {
		j.Emit(Event{Type: EventEpoch, Epoch: i + 1})
	}
	if got := j.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
	all := j.Since(0)
	if len(all) != 5 {
		t.Fatalf("Since(0) returned %d events, want 5", len(all))
	}
	for i, e := range all {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
		if e.Time == 0 {
			t.Fatalf("event %d has no timestamp", i)
		}
	}
	tail := j.Since(3)
	if len(tail) != 2 || tail[0].Seq != 4 || tail[1].Seq != 5 {
		t.Fatalf("Since(3) = %+v, want seqs 4,5", tail)
	}
}

func TestJournalRingEvictsOldest(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Emit(Event{Type: EventEpoch})
	}
	got := j.Since(0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(got))
	}
	for i, e := range got {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("ring[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
}

func TestJournalFileAppendAndTornLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, EventsFile)
	j := NewJournal(0)
	if err := j.OpenFile(path); err != nil {
		t.Fatal(err)
	}
	j.Emit(Event{Type: EventRunStart, Tasks: 3})
	j.Emit(Event{Type: EventEpoch, Model: "m1", Epoch: 1, ValAcc: 0.5})
	j.Emit(Event{Type: EventRunEnd})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn final line must be skipped.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":4,"type":"trun`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	events, err := ReadEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("read %d events, want 3 (torn line skipped)", len(events))
	}
	if events[0].Type != EventRunStart || events[0].Tasks != 3 {
		t.Fatalf("first event = %+v", events[0])
	}
	if events[1].Model != "m1" || events[1].ValAcc != 0.5 {
		t.Fatalf("epoch event = %+v", events[1])
	}
	if events[2].Seq != 3 {
		t.Fatalf("last event seq = %d, want 3", events[2].Seq)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Emit(Event{Type: EventEpoch}) // must not panic
	j.Ingest(Event{Seq: 9})
	if j.Since(0) != nil {
		t.Fatal("nil journal Since should be nil")
	}
	if j.LastSeq() != 0 || j.Emitted() != 0 {
		t.Fatal("nil journal should report zeros")
	}
	if s := j.Subscribe(); s != nil {
		t.Fatal("nil journal Subscribe should return nil")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	var o *Observer
	if o.Journal() != nil {
		t.Fatal("nil observer Journal should be nil")
	}
}

func TestJournalIngestPreservesSeq(t *testing.T) {
	j := NewJournal(8)
	j.Ingest(Event{Seq: 41, Type: EventEpoch})
	j.Ingest(Event{Seq: 42, Type: EventEpoch})
	if got := j.LastSeq(); got != 42 {
		t.Fatalf("LastSeq = %d, want 42", got)
	}
	// A subsequent Emit continues past the ingested sequence.
	j.Emit(Event{Type: EventRunEnd})
	got := j.Since(41)
	if len(got) != 2 || got[0].Seq != 42 || got[1].Seq != 43 {
		t.Fatalf("Since(41) = %+v, want seqs 42,43", got)
	}
}

func TestObserverJournalMetrics(t *testing.T) {
	o := NewObserver()
	o.Journal().Emit(Event{Type: EventEpoch})
	o.Journal().Emit(Event{Type: EventEpoch})
	if got := o.Registry().Counter("a4nn_events_emitted_total").Value(); got != 2 {
		t.Fatalf("a4nn_events_emitted_total = %d, want 2", got)
	}
	if got := o.Journal().Emitted(); got != 2 {
		t.Fatalf("Emitted() = %d, want 2", got)
	}
}

// TestJournalEmitAllocs holds the enabled journal path to what it cost
// before the file moved behind durable.Log: with a file attached, Emit
// allocates what encoding the line allocates (2 per event: the boxed
// event and the marshalled bytes; 3 under the race detector) and
// nothing more.
func TestJournalEmitAllocs(t *testing.T) {
	j := NewJournal(0)
	if err := j.OpenFile(filepath.Join(t.TempDir(), EventsFile)); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	e := Event{Type: EventEpoch, Gen: 2, Task: 3, Model: "m-g02-i03", Epoch: 7, ValAcc: 61.25, Loss: 0.5}
	j.Emit(e) // sizes the line scratch
	budget := testing.AllocsPerRun(2000, func() { json.Marshal(e) })
	if got := testing.AllocsPerRun(2000, func() { j.Emit(e) }); got > budget {
		t.Fatalf("Emit with a file attached allocates %v per event, encoding alone %v", got, budget)
	}
}

// LastSeq returns the highest sequence number assigned so far (0 when
// nothing has been emitted). Nil-safe.
func (j *Journal) LastSeq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next - 1
}

// Emitted returns the number of events emitted or ingested (0 without
// bound metrics). Nil-safe.
func (j *Journal) Emitted() uint64 {
	if j == nil {
		return 0
	}
	return j.emitted.Value()
}
