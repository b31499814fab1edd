package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadEvents asserts the journal reader never panics on torn,
// truncated, or bit-flipped input: invalid lines are skipped, valid
// ones decoded, and the only error surface is the line-length cap. Each
// decoded journal is also folded into telemetry, which must come out
// with ascending generations and no negative count.
func FuzzReadEvents(f *testing.F) {
	f.Add([]byte(`{"seq":1,"t":1,"type":"run_start"}` + "\n" + `{"seq":2,"t":2,"type":"epoch","model":"m","epoch":1}` + "\n"))
	f.Add([]byte(`{"seq":1,"t":1,"type":"run_start"}` + "\n" + `{"seq":2,"t":2,"ty`)) // torn tail
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{0xff, 0xfe, 0x00, '\n', '{', '}'})
	f.Add([]byte(`{"seq":1,"type":"run_start","epochs":10}` + "\n" +
		`{"seq":2,"type":"model_done","gen":1,"model":"a","epochs":12,"terminated":true}` + "\n" +
		`{"seq":3,"type":"model_done","gen":-3,"model":"b","epochs":-4}` + "\n" +
		`{"seq":4,"type":"generation_end","gen":1,"tasks":-1,"device_busy":[1,2],"retries":-2,"faults":9223372036854775807}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "events.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		events, err := ReadEvents(path)
		if err != nil {
			return // oversized line: reported, never panicked
		}
		tel := AggregateEvents(events)
		if tel.Spans != len(events) || tel.EpochsTrained < 0 || tel.EpochsSaved < 0 || tel.Terminated < 0 {
			t.Fatalf("run totals %+v from %d events", tel, len(events))
		}
		for i, g := range tel.Generations {
			if i > 0 && g.Generation <= tel.Generations[i-1].Generation {
				t.Fatalf("generation %d after %d", g.Generation, tel.Generations[i-1].Generation)
			}
			if g.Tasks < 0 || g.Retries < 0 || g.Faults < 0 || g.EpochsTrained < 0 || g.EpochsSaved < 0 || g.Terminated < 0 {
				t.Fatalf("negative count in %+v", g)
			}
		}
	})
}

func TestOpenFileContinuesSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")

	j := NewJournal(8)
	if err := j.OpenFile(path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		j.Emit(Event{Type: EventEpoch, Epoch: i + 1})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: tear the final line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh journal (a relaunched process) must continue after the
	// highest intact seq, not restart at 1.
	j2 := NewJournal(8)
	if err := j2.OpenFile(path); err != nil {
		t.Fatal(err)
	}
	j2.Emit(Event{Type: EventRunStart})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	for _, e := range events {
		if e.Seq <= prev {
			t.Fatalf("seq not strictly increasing: %d after %d", e.Seq, prev)
		}
		prev = e.Seq
	}
	last := events[len(events)-1]
	if last.Type != EventRunStart || last.Seq != 3 {
		t.Fatalf("resumed event = %+v, want run_start with seq 3 (after intact seqs 1,2)", last)
	}
}

func TestOpenFileFreshStartsAtOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j := NewJournal(8)
	if err := j.OpenFile(path); err != nil {
		t.Fatal(err)
	}
	j.Emit(Event{Type: EventRunStart})
	j.Close()
	events, err := ReadEvents(path)
	if err != nil || len(events) != 1 || events[0].Seq != 1 {
		t.Fatalf("fresh journal events = %+v, %v", events, err)
	}
}
