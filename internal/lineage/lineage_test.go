package lineage

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"a4nn/internal/durable"
)

func sampleRecord() *Record {
	return &Record{
		ID:            "abc123",
		Genome:        "1010001|0000000|1111111",
		NodesPerPhase: 4,
		Generation:    2,
		Architecture:  "phase(w=8)...",
		NumParams:     1234,
		FLOPs:         5678,
		Beam:          "medium",
		DeviceID:      1,
		Epochs: []EpochEntry{
			{Epoch: 1, TrainLoss: 0.9, TrainAccuracy: 55, ValAccuracy: 54, SimSeconds: 10},
			{Epoch: 2, TrainLoss: 0.6, TrainAccuracy: 70, ValAccuracy: 68, SimSeconds: 10},
			{Epoch: 3, TrainLoss: 0.4, TrainAccuracy: 80, ValAccuracy: 78, Prediction: 91, HasPrediction: true, SimSeconds: 10},
			{Epoch: 4, TrainLoss: 0.3, TrainAccuracy: 85, ValAccuracy: 83, Prediction: 91.2, HasPrediction: true, SimSeconds: 10},
		},
		Terminated:       true,
		TerminationEpoch: 4,
		FinalFitness:     91.2,
		Engine:           &EngineParams{Family: "a-b^(c-x)", CMin: 3, EPred: 25, N: 3, R: 0.5, MaxFitness: 100},
		CreatedAt:        time.Date(2026, 7, 5, 0, 0, 0, 0, time.UTC),
	}
}

func TestRecordValidate(t *testing.T) {
	r := sampleRecord()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := sampleRecord()
	bad.ID = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("missing ID must fail")
	}
	bad = sampleRecord()
	bad.Genome = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("missing genome must fail")
	}
	bad = sampleRecord()
	bad.Epochs[1].Epoch = 7
	if err := bad.Validate(); err == nil {
		t.Fatal("mislabelled epoch must fail")
	}
	bad = sampleRecord()
	bad.TerminationEpoch = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("inconsistent termination epoch must fail")
	}
}

func TestHistoriesAndAggregates(t *testing.T) {
	r := sampleRecord()
	h := r.FitnessHistory()
	if len(h) != 4 || h[0] != 54 || h[3] != 83 {
		t.Fatalf("H = %v", h)
	}
	p := r.PredictionHistory()
	if len(p) != 2 || p[0] != 91 || p[1] != 91.2 {
		t.Fatalf("P = %v", p)
	}
	if r.EpochsTrained() != 4 {
		t.Fatalf("EpochsTrained = %d", r.EpochsTrained())
	}
	if r.SimSeconds() != 40 {
		t.Fatalf("SimSeconds = %v", r.SimSeconds())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	r := sampleRecord()
	w := durable.JSON{}
	w.Object()
	r.WriteJSON(&w, "record")
	w.EndObject()
	var done struct{ Record *Record }
	if err := json.Unmarshal(w.B, &done); err != nil || w.Err != nil {
		t.Fatal(err, w.Err)
	}
	want, _ := json.MarshalIndent(r, "", "  ")
	got, _ := json.MarshalIndent(done.Record, "", "  ")
	if string(got) != string(want) {
		t.Fatalf("round trip wrote\n%s\nwant\n%s", got, want)
	}
}

func TestMarshalRejectsInvalid(t *testing.T) {
	r := sampleRecord()
	r.ID = ""
	if r.Validate() == nil {
		t.Fatal("a record with no ID must not validate")
	}
	r = sampleRecord()
	r.Epochs[1].Epoch = 3
	if r.Validate() == nil {
		t.Fatal("mislabelled epochs must not validate")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		r = sampleRecord()
		r.Epochs[2].TrainLoss = bad
		if err := r.Validate(); err == nil {
			t.Fatalf("epoch loss %v must fail validation: no journal line can carry it", bad)
		}
		r = sampleRecord()
		r.FinalFitness = bad
		if err := r.Validate(); err == nil {
			t.Fatalf("final fitness %v must fail validation", bad)
		}
	}
}

// fuzzRecord builds a valid Record from the fuzz's values, setting each
// optional part, or leaving it zero, by one bit of mask: Epochs nil,
// empty or filled, Engine nil or set. CreatedAt is zero when zone is 1,
// else n seconds in a zone zone seconds east of UTC.
func fuzzRecord(s string, x, y float64, n int64, mask uint64, zone int32) *Record {
	next := uint(0)
	set := func() bool { next++; return mask>>(next-1)&1 == 1 }
	r := &Record{ID: "r" + s, Genome: "g" + s, NodesPerPhase: int(n >> 7), Generation: int(n >> 3),
		Architecture: s, NumParams: int(n >> 9), FLOPs: n, Beam: s, DeviceID: int(n >> 11),
		FinalFitness: x}
	if zone != 1 {
		r.CreatedAt = time.Unix(n, n%1e9).In(time.FixedZone("", int(zone)))
	}
	if set() {
		r.Attempt, r.SlowFactor = int(n>>13), y
	}
	if set() {
		r.Engine = &EngineParams{Family: s, CMin: int(n >> 1), EPred: int(n >> 2), N: int(n >> 4),
			R: y, MinFitness: x, MaxFitness: y}
	}
	r.Terminated = set()
	if set() {
		r.Epochs = []EpochEntry{}
		for e := 1; e <= 4 && set(); e++ {
			r.Epochs = append(r.Epochs, EpochEntry{Epoch: e, TrainLoss: x, TrainAccuracy: y,
				ValAccuracy: x * float64(e), Prediction: y, HasPrediction: set(), SimSeconds: float64(n)})
		}
	}
	if r.Terminated {
		r.TerminationEpoch = len(r.Epochs)
	}
	return r
}

// TestFuzzRecordSetsEveryField keeps FuzzRecordJSON complete: with every
// mask bit set, fuzzRecord must give every field of Record a value
// json.Marshal writes, so a field added to Record without a line in
// WriteJSON fails the fuzz's seeds.
func TestFuzzRecordSetsEveryField(t *testing.T) {
	data, err := json.Marshal(fuzzRecord("strings", 1.5, 2.5, 1<<33, ^uint64(0), 3600))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if n := reflect.TypeOf(Record{}).NumField(); len(keys) != n {
		t.Fatalf("fuzzRecord sets %d of Record's %d fields: %s", len(keys), n, data)
	}
}

// FuzzRecordJSON holds WriteJSON to json.Marshal's bytes: each field of
// a record is set or left zero by one bit of mask, Epochs is nil, empty
// or filled, Engine nil or set, and the two encodings must be equal, or
// both must refuse the record.
func FuzzRecordJSON(f *testing.F) {
	strs := []string{"m-g03-i07", "<a>&b</a>", "\x00\x1f\b\f\n\r\t\"\\", "bad\xff\xc3utf8", "\u2028sep\u2029",
		"network \"m-g03-i07\" input [1 16 16]\n   0 conv3x3                      [1 16 16] -> [4 16 16]\n"}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e-7, 1e21, 61.25}
	for i, x := range floats {
		s := strs[i%len(strs)]
		f.Add(s, x, floats[(i+1)%len(floats)], int64(1700000000+i), ^uint64(0)>>(i%3), int32(19800))
		f.Add(s, 0.5, x, int64(i), uint64(0xa5a5a5a5a5a5a5a5)>>i, int32(-3600*i))
	}
	f.Add("m", 1.0, 2.0, int64(0), uint64(0), int32(1))               // zero time, nil Epochs
	f.Add("m", 1.0, 2.0, int64(0), uint64(1)<<3, int32(0))            // empty Epochs
	f.Add("m", 1.0, 2.0, int64(1)<<50, ^uint64(0), int32(0))          // year past 9999
	f.Add("m", 1.0, 2.0, int64(1700000000), ^uint64(0), int32(86400)) // a day's offset
	f.Fuzz(func(t *testing.T, s string, x, y float64, n int64, mask uint64, zone int32) {
		r := fuzzRecord(s, x, y, n, mask, zone)
		want, werr := json.Marshal(r)
		w := durable.JSON{B: []byte("held")}
		r.WriteJSON(&w, "")
		switch {
		case werr != nil || w.Err != nil:
			if werr == nil || w.Err == nil {
				t.Fatalf("encoding/json: %v; WriteJSON: %v", werr, w.Err)
			}
		case string(w.B) != `held"":`+string(want):
			t.Fatalf("WriteJSON wrote\n%s\nencoding/json\n%s", w.B, want)
		}
	})
}
