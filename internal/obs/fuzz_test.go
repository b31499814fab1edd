package obs

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"a4nn/internal/lineage"
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

// fuzzEvent sets each field of an Event, or leaves it zero, by one bit
// of mask: integers from n, floats from x and y, strings from suffixes
// of s, and the two slices nil, empty or filled.
func fuzzEvent(s string, x, y float64, n int64, mask uint64) Event {
	next := uint(0)
	set := func() bool { next++; return mask>>(next-1)&1 == 1 }
	num := func() int {
		if set() {
			return int(n >> (next % 8))
		}
		return 0
	}
	flt := func() float64 {
		switch {
		case !set():
			return 0
		case next%2 == 0:
			return x
		}
		return y
	}
	str := func() string {
		if set() {
			return s[min(int(next%4), len(s)):]
		}
		return ""
	}
	e := Event{Seq: uint64(n), Time: n, Type: s}
	e.Gen, e.Task, e.Device, e.Attempt, e.Model = num(), num(), num(), num(), str()
	e.Epoch, e.Tasks, e.Devices = num(), num(), num()
	e.ValAcc, e.Loss, e.TrainAcc, e.Fitness, e.Predicted, e.Actual = flt(), flt(), flt(), flt(), flt(), flt()
	e.Epochs, e.SavedEpochs, e.Terminated, e.HasPred = num(), num(), set(), set()
	e.SimSeconds, e.WallSeconds, e.IdleSeconds, e.LostSeconds, e.MeanQueueWaitSeconds = flt(), flt(), flt(), flt(), flt()
	e.Retries, e.Faults, e.SlowFactor, e.Err = num(), num(), flt(), str()
	e.AlertID, e.Monitor, e.Severity, e.Msg, e.Count = str(), str(), str(), str(), num()
	e.Reason, e.Path, e.Goroutines, e.GCPauseSec, e.FDs = str(), str(), num(), flt(), num()
	if set() {
		e.HeapBytes, e.RSSBytes = uint64(n), ^uint64(n)
	}
	if set() {
		e.DeviceBusy = []float64{}
		if set() {
			e.DeviceBusy = append(e.DeviceBusy, x, y)
		}
	}
	if set() {
		e.Record = &lineage.Record{ID: str(), Genome: s, NodesPerPhase: num(), Generation: num(), Architecture: str(),
			NumParams: num(), FLOPs: n, Beam: str(), DeviceID: num(), Attempt: num(), SlowFactor: flt(),
			Terminated: set(), TerminationEpoch: num(), FinalFitness: flt(),
			CreatedAt: time.Unix(n%1e10, n%1e9).In(time.FixedZone("", int(n%50000)))}
		if set() {
			e.Record.Epochs = []lineage.EpochEntry{{Epoch: num(), TrainLoss: x, ValAccuracy: y, HasPrediction: set()}}
		}
		if set() {
			e.Record.Engine = &lineage.EngineParams{Family: s, CMin: num(), EPred: num(), N: num(),
				R: flt(), MinFitness: x, MaxFitness: y}
		}
	}
	if set() {
		e.Front = []ParetoPoint{}
		if set() {
			e.Front = append(e.Front, ParetoPoint{ID: s, Accuracy: x, MFLOPs: y}, ParetoPoint{})
		}
	}
	return e
}

// TestFuzzEventSetsEveryField keeps FuzzEventJSON complete: with every
// mask bit set, fuzzEvent must give every field of Event a value
// json.Marshal writes, so a field added to Event without a line in
// AppendJSON fails the fuzz's seeds.
func TestFuzzEventSetsEveryField(t *testing.T) {
	line, err := json.Marshal(fuzzEvent("strings", 1.5, 2.5, 1<<40, ^uint64(0)))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if n := reflect.TypeOf(Event{}).NumField(); len(keys) != n {
		t.Fatalf("fuzzEvent sets %d of Event's %d fields: %s", len(keys), n, line)
	}
}

// FuzzEventJSON holds the journal line to json.Marshal's bytes: equal,
// or both refuse the event and the line buffer keeps what it held.
func FuzzEventJSON(f *testing.F) {
	strs := []string{"epoch", "<a>&b</a>", "\x00\x1f\b\f\n\r\t\"\\\x7f", "bad\xff\xc3utf8", "\u2028sep\u2029", `network "m" [1] -> [4]`}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e-7, 1e21, 61.25, 1e6}
	for i, x := range floats {
		s := strs[i%len(strs)]
		f.Add(s, x, floats[(i+1)%len(floats)], int64(i)*1e15+7, ^uint64(0))
		f.Add(s, 0.5, x, -int64(i), uint64(0x5555555555555555)<<(i%2))
	}
	f.Add("", 1.0, 2.0, int64(math.MinInt64), uint64(0))
	f.Fuzz(func(t *testing.T, s string, x, y float64, n int64, mask uint64) {
		e := fuzzEvent(s, x, y, n, mask)
		want, werr := json.Marshal(e)
		got, gerr := e.AppendJSON([]byte("held"))
		switch {
		case werr != nil || gerr != nil:
			if werr == nil || gerr == nil || string(got) != "held" {
				t.Fatalf("encoding/json: %v; AppendJSON: %v, left %q", werr, gerr, got)
			}
		case string(got) != "held"+string(want):
			t.Fatalf("AppendJSON wrote\n%s\nencoding/json\n%s", got[4:], want)
		}
	})
}
