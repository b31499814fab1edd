package commons

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"a4nn/internal/durable"
	"a4nn/internal/lineage"
)

func testCheckpoint(id string, epoch int) *Checkpoint {
	c := &Checkpoint{
		ID:           id,
		Genome:       "1011-110",
		Generation:   2,
		Seed:         42424242,
		Epoch:        epoch,
		State:        []byte(`{"a":61.2,"epoch":3}`),
		SimSeconds:   123.5,
		Interactions: epoch,
		SavedAt:      time.Unix(1700000000, 0).UTC(),
	}
	c.StateDigest = StateDigest(c.State)
	for e := 1; e <= epoch; e++ {
		c.Epochs = append(c.Epochs, lineage.EpochEntry{
			Epoch: e, ValAccuracy: 50 + float64(e), Prediction: 60, HasPrediction: e >= 3,
		})
	}
	return c
}

// epochCheckpoints returns one model's checkpoint after each of n
// epochs, as the training loop hands them to a CheckpointLog: each
// extends the slices of the one before. A stateSize > 0 pads the state
// to that many bytes, as real weights would.
func epochCheckpoints(id string, n, stateSize int) []*Checkpoint {
	var epochs []lineage.EpochEntry
	var secs []float64
	out := make([]*Checkpoint, n)
	for e := 1; e <= n; e++ {
		epochs = append(epochs, lineage.EpochEntry{
			Epoch: e, TrainLoss: 1 / float64(e), TrainAccuracy: 40 + float64(e),
			ValAccuracy: 50 + float64(e), Prediction: 60 + float64(e)/10, HasPrediction: e >= 3,
			SimSeconds: 6.5,
		})
		secs = append(secs, 1e-4*float64(e))
		state := []byte(fmt.Sprintf(`{"a":61.2,"epoch":%d}`, e))
		if stateSize > len(state) {
			state = append(state, bytes.Repeat([]byte{byte(e)}, stateSize-len(state))...)
		}
		out[e-1] = &Checkpoint{
			ID: id, Genome: "1011-110", Generation: 2, Seed: 42424242, Epoch: e,
			State: state, StateDigest: StateDigest(state), Epochs: epochs,
			SimSeconds: 6.5 * float64(e), EngineSeconds: 2e-4 * float64(e),
			Interactions: e, InteractionSeconds: secs,
			SavedAt: time.Unix(1700000000+int64(e), 0).UTC(),
		}
	}
	return out
}

// writeLog puts cps through one fresh CheckpointLog and returns the
// file and its length after each Put.
func writeLog(t testing.TB, s *Store, cps []*Checkpoint) (data []byte, ends []int) {
	t.Helper()
	w := s.CheckpointLog(cps[0].ID, nil)
	path := s.checkpointPath(cps[0].ID)
	for _, c := range cps {
		if err := w.Put(c); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int(st.Size()))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, ends
}

// sameCheckpoint fails unless got encodes to the bytes want does.
func sameCheckpoint(t *testing.T, label string, got, want *Checkpoint) {
	t.Helper()
	g, err := EncodeCheckpoint(got)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	w, err := EncodeCheckpoint(want)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: decoded checkpoint differs\ngot:  %s\nwant: %s", label, g, w)
	}
}

// legacyEnvelope is a checkpoint in the retired single-envelope format:
// "A4CK", version 1, payload length, CRC-32, JSON.
func legacyEnvelope(t testing.TB, c *Checkpoint) []byte {
	payload, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte("A4CK"), 1)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := testCheckpoint("m-g01-i03", 4)
	data, err := EncodeCheckpoint(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint("x.ckpt", data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != c.ID || got.Seed != c.Seed || got.Epoch != c.Epoch || got.StateDigest != c.StateDigest {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	h := got.History()
	if len(h) != 4 || h[0] != 51 {
		t.Fatalf("History() = %v", h)
	}
	p, epochs := got.Predictions()
	if len(p) != 2 || epochs[0] != 3 || epochs[1] != 4 {
		t.Fatalf("Predictions() = %v @ %v", p, epochs)
	}
}

func TestDecodeCheckpointCorruption(t *testing.T) {
	c := testCheckpoint("m", 2)
	data, err := EncodeCheckpoint(c)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		reason string
	}{
		{"empty", func(b []byte) []byte { return nil }, "truncated"},
		{"short header", func(b []byte) []byte { return b[:7] }, "truncated"},
		{"bad magic", func(b []byte) []byte { b[5] = 'X'; return b }, "magic"},
		{"legacy envelope", func([]byte) []byte { return legacyEnvelope(t, c) }, "magic"},
		{"torn payload", func(b []byte) []byte { return b[:len(b)-5] }, "truncated"},
		{"bit flip", func(b []byte) []byte { b[20] ^= 0x40; return b }, "checksum"},
		{"bad JSON", func([]byte) []byte { return durable.AppendSection(nil, headFrame, []byte("{")) }, "decode"},
		{"invalid", func([]byte) []byte { return durable.AppendSection(nil, headFrame, []byte(`{"id":"m"}`)) }, "validate"},
		{"second head", func(b []byte) []byte { return append(b, b...) }, "magic"},
	}
	for _, tc := range cases {
		buf := tc.mutate(append([]byte(nil), data...))
		_, err := DecodeCheckpoint("x.ckpt", buf)
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v is not a CorruptionError", tc.name, err)
			continue
		}
		if ce.Reason != tc.reason {
			t.Errorf("%s: reason %q, want %q", tc.name, ce.Reason, tc.reason)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: does not unwrap to ErrCorrupt", tc.name)
		}
		if CorruptionReason(err) != tc.reason {
			t.Errorf("%s: CorruptionReason = %q", tc.name, CorruptionReason(err))
		}
	}
	// Bytes after the last intact frame are a torn append, not damage.
	got, err := DecodeCheckpoint("x.ckpt", append(append([]byte(nil), data...), 0, 0))
	if err != nil {
		t.Fatalf("trailing torn bytes: %v", err)
	}
	sameCheckpoint(t, "trailing torn bytes", got, c)
}

func TestStoreCheckpointCRUD(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetCheckpoint("nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing checkpoint: %v", err)
	}
	c := testCheckpoint("m-g00-i01", 3)
	if err := s.PutCheckpoint(c); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetCheckpoint(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Genome != c.Genome || got.Epoch != 3 {
		t.Fatalf("got %+v", got)
	}
	ids, err := s.Checkpoints()
	if err != nil || len(ids) != 1 || ids[0] != c.ID {
		t.Fatalf("Checkpoints() = %v, %v", ids, err)
	}
	if err := s.DeleteCheckpoint(c.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteCheckpoint(c.ID); err != nil {
		t.Fatalf("double delete: %v", err)
	}
	if ids, _ := s.Checkpoints(); len(ids) != 0 {
		t.Fatalf("after delete: %v", ids)
	}
}

func TestQuarantine(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A torn checkpoint is detected and quarantined with its reason.
	valid, err := EncodeCheckpoint(testCheckpoint("torn", 1))
	if err != nil {
		t.Fatal(err)
	}
	path := s.checkpointPath("torn")
	if err := os.WriteFile(path, valid[:9], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.GetCheckpoint("torn")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn checkpoint: %v", err)
	}
	dest, err := s.QuarantineCheckpoint("torn", CorruptionReason(err))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dest, QuarantineDir) || !strings.HasSuffix(dest, ".truncated") {
		t.Fatalf("quarantine dest %q", dest)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("torn checkpoint still in checkpoints/")
	}
	if _, err := os.Stat(dest); err != nil {
		t.Fatal(err)
	}

	// Name collisions get a counter suffix instead of clobbering.
	if err := os.WriteFile(path, valid[:9], 0o644); err != nil {
		t.Fatal(err)
	}
	dest2, err := s.QuarantineCheckpoint("torn", "truncated")
	if err != nil {
		t.Fatal(err)
	}
	if dest2 == dest {
		t.Fatalf("second quarantine reused %q", dest)
	}

	// Records quarantine the same way.
	rpath := s.recordPath("bad")
	if err := os.WriteFile(rpath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetRecord("bad"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn record: %v", err)
	}
	rdest, err := s.QuarantineRecord("bad", "decode")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(rdest) != filepath.Join(s.Root(), QuarantineDir) {
		t.Fatalf("record quarantined to %q", rdest)
	}
	// The corrupt record no longer poisons List/All.
	if ids, err := s.List(); err != nil || len(ids) != 0 {
		t.Fatalf("List after quarantine: %v, %v", ids, err)
	}
}

func TestEncodeCheckpointValidates(t *testing.T) {
	bad := []*Checkpoint{
		{},
		{ID: "x", Genome: "g"},
		{ID: "x", Genome: "g", Epoch: 2, Epochs: []lineage.EpochEntry{{Epoch: 1}}},
		{ID: "x", Genome: "g", Epoch: 1, Epochs: []lineage.EpochEntry{{Epoch: 7}}},
	}
	for i, c := range bad {
		if _, err := EncodeCheckpoint(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestCheckpointLogFoldEqualsPut: N per-epoch appends fold back into
// the checkpoint PutCheckpoint would have written after the last epoch.
func TestCheckpointLogFoldEqualsPut(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cps := epochCheckpoints("m-g03-i07", 18, 0)
	writeLog(t, s, cps)
	got, err := s.GetCheckpoint(cps[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, "fold of 18 appends", got, cps[17])

	put, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := put.PutCheckpoint(cps[17]); err != nil {
		t.Fatal(err)
	}
	want, err := put.GetCheckpoint(cps[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, "PutCheckpoint", got, want)
}

// TestCheckpointLogCutAtEveryOffset: a 3-frame file cut anywhere decodes
// to its last intact prefix, or is corrupt when no frame is intact.
func TestCheckpointLogCutAtEveryOffset(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cps := epochCheckpoints("m", 3, 0)
	data, ends := writeLog(t, s, cps)
	if ends[0] >= ends[1] || ends[1] >= ends[2] || ends[2] != len(data) {
		t.Fatalf("frame ends %v over %d bytes: not three appends", ends, len(data))
	}
	for k := 0; k <= len(data); k++ {
		got, err := DecodeCheckpoint("cut.ckpt", data[:k])
		if k < ends[0] {
			var ce *CorruptionError
			if !errors.As(err, &ce) || got != nil {
				t.Fatalf("cut at %d (no intact frame): %v, %v", k, got, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d: %v", k, err)
		}
		j := 0
		for j+1 < len(ends) && ends[j+1] <= k {
			j++
		}
		sameCheckpoint(t, fmt.Sprintf("cut at %d", k), got, cps[j])
		if got.size != int64(ends[j]) {
			t.Fatalf("cut at %d: intact length %d, want %d", k, got.size, ends[j])
		}
	}
}

// TestCheckpointLogFlipEveryByte: any single damaged byte decodes to a
// prefix that ends before it, or to a CorruptionError — never a panic or
// wrong data.
func TestCheckpointLogFlipEveryByte(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cps := epochCheckpoints("m", 3, 0)
	data, ends := writeLog(t, s, cps)
	for i := range data {
		buf := append([]byte(nil), data...)
		buf[i] ^= 0xFF
		got, err := DecodeCheckpoint("flip.ckpt", buf)
		if err != nil {
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("flip at %d: untyped error %v", i, err)
			}
			continue
		}
		j := -1
		for k, end := range ends {
			if int64(end) == got.size {
				j = k
			}
		}
		if j < 0 || got.size > int64(i) {
			t.Fatalf("flip at %d: decoded %d bytes, not a prefix before the flip (frames end %v)", i, got.size, ends)
		}
		sameCheckpoint(t, fmt.Sprintf("flip at %d", i), got, cps[j])
	}
}

// TestCheckpointLogRewritesPastBound: with weights-sized states a file
// of appends would outgrow the checkpoint it holds; the log replaces it
// with one frame instead, so it never exceeds twice that size.
func TestCheckpointLogRewritesPastBound(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cps := epochCheckpoints("m", 6, 4096)
	w := s.CheckpointLog("m", nil)
	rewrites := 0
	for i, c := range cps {
		if err := w.Put(c); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(s.checkpointPath("m"))
		if err != nil {
			t.Fatal(err)
		}
		one, err := EncodeCheckpoint(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 2*len(one) {
			t.Fatalf("after epoch %d the file is %d bytes, over twice %d", i+1, len(data), len(one))
		}
		if i > 0 && bytes.Equal(data, one) {
			rewrites++
		}
		got, err := DecodeCheckpoint("m", data)
		if err != nil {
			t.Fatal(err)
		}
		sameCheckpoint(t, fmt.Sprintf("epoch %d", i+1), got, c)
	}
	if err := w.Remove(); err != nil {
		t.Fatal(err)
	}
	if rewrites == 0 {
		t.Fatal("the file was never rewritten as one frame")
	}
	if ids, _ := s.Checkpoints(); len(ids) != 0 {
		t.Fatalf("Remove left %v", ids)
	}
}

// TestCheckpointLogFreshAndResumed: a fresh log starts the file empty;
// a resumed one cuts a torn tail and appends after the intact frames.
func TestCheckpointLogFreshAndResumed(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cps := epochCheckpoints("m", 4, 0)
	data, ends := writeLog(t, s, cps[:3])
	path := s.checkpointPath("m")
	torn := data[:ends[1]+(ends[2]-ends[1])/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	from, err := s.GetCheckpoint("m")
	if err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, "torn third frame", from, cps[1])

	// The resumed attempt retrains epoch 3 with the same slices.
	w := s.CheckpointLog("m", from)
	for _, c := range cps[2:] {
		if err := w.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetCheckpoint("m")
	if err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, "resumed", got, cps[3])
	if after, _ := os.ReadFile(path); !bytes.Equal(after[:ends[2]], data) {
		t.Fatal("the resumed log did not cut the torn frame before appending")
	}

	w = s.CheckpointLog("m", nil)
	if err := w.Put(cps[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, data[:ends[0]]) {
		t.Fatalf("a fresh log kept %d bytes, want its one frame (%d)", len(after), ends[0])
	}
}

// FuzzDecodeCheckpoint asserts the frame reader never panics and always
// classifies garbage as a typed corruption error.
func FuzzDecodeCheckpoint(f *testing.F) {
	valid, err := EncodeCheckpoint(testCheckpoint("m-g01-i00", 3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("A4CK"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-3] ^= 0x10
	f.Add(flipped)
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	// A small three-frame log: the fuzzer stalls minimizing long inputs.
	var tiny []*Checkpoint
	var entries []lineage.EpochEntry
	for e := 1; e <= 3; e++ {
		entries = append(entries, lineage.EpochEntry{Epoch: e, ValAccuracy: float64(50 + e)})
		tiny = append(tiny, &Checkpoint{ID: "m", Genome: "g", Epoch: e, Epochs: entries})
	}
	multi, ends := writeLog(f, s, tiny)
	f.Add(multi)
	f.Add(multi[:ends[1]+3])
	mid := append([]byte(nil), multi...)
	mid[ends[0]+20] ^= 0x01
	f.Add(mid)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint("fuzz.ckpt", data)
		if err == nil {
			if c == nil || c.Validate() != nil || c.size > int64(len(data)) {
				t.Fatal("nil error with invalid checkpoint")
			}
			return
		}
		var ce *CorruptionError
		if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped decode error: %v", err)
		}
	})
}

// BenchmarkCheckpointFrame is one epoch's checkpoint frame, the tenth
// of a surrogate model, encoded into a buffer the log reuses. The bench
// gate holds it at 0 allocs/op.
func BenchmarkCheckpointFrame(b *testing.B) {
	c := epochCheckpoints("m-g03-i07", 10, 0)[9]
	c.State = []byte(`{"a":88.5,"beta":0.35,"c":3.25,"epoch":10,"last_val":71.125}`)
	buf, err := appendFrame(nil, c, 9, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = appendFrame(buf[:0], c, 9, 9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointModel is one surrogate model's checkpoint traffic
// at paper scale: a fresh log, 18 epoch appends, and the delete that
// follows its record's commit.
func BenchmarkCheckpointModel(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cps := epochCheckpoints("m-g03-i07", 18, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := s.CheckpointLog(cps[0].ID, nil)
		for _, c := range cps {
			if err := w.Put(c); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Remove(); err != nil {
			b.Fatal(err)
		}
	}
}

// fuzzCheckpoint sets each field of a Checkpoint, or leaves it zero, by
// one bit of mask: strings from s, numbers from n, x and y, and
// Epochs and InteractionSeconds nil, empty or filled. SavedAt is zero
// when zone is 1, else n seconds in a zone zone seconds east of UTC.
func fuzzCheckpoint(s string, state []byte, x, y float64, n int64, mask uint64, zone int32) *Checkpoint {
	next := uint(0)
	set := func() bool { next++; return mask>>(next-1)&1 == 1 }
	c := &Checkpoint{Epoch: int(n)}
	if zone != 1 {
		c.SavedAt = time.Unix(n, n%1e9).In(time.FixedZone("", int(zone)))
	}
	if set() {
		c.ID, c.Genome = s, s+"g"
	}
	if set() {
		c.Generation, c.Seed = int(n>>3), -n
	}
	if set() {
		c.Terminated, c.State, c.StateDigest = true, state, uint64(n)
	}
	if set() {
		c.SimSeconds, c.EngineSeconds, c.Interactions = x, y, int(n>>5)
	}
	if set() {
		c.InteractionSeconds = []float64{}
		if set() {
			c.InteractionSeconds = append(c.InteractionSeconds, y, x)
		}
	}
	if set() {
		c.Epochs = []lineage.EpochEntry{}
		for e := 1; e <= 4 && set(); e++ {
			c.Epochs = append(c.Epochs, lineage.EpochEntry{Epoch: e, TrainLoss: x, TrainAccuracy: y,
				ValAccuracy: x * float64(e), Prediction: y, HasPrediction: set(), SimSeconds: float64(n)})
		}
	}
	return c
}

// TestFuzzCheckpointSetsEveryField keeps FuzzCheckpointJSON complete:
// with every mask bit set, fuzzCheckpoint must give every field of
// Checkpoint a value json.Marshal writes, so a field added to Checkpoint
// without a line in writeJSON fails the fuzz's seeds.
func TestFuzzCheckpointSetsEveryField(t *testing.T) {
	payload, err := json.Marshal(fuzzCheckpoint("strings", []byte("state"), 1.5, 2.5, 1<<33, ^uint64(0), 3600))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(payload, &keys); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Checkpoint{})) {
		if f.IsExported() {
			n++
		}
	}
	if len(keys) != n {
		t.Fatalf("fuzzCheckpoint sets %d of Checkpoint's %d fields: %s", len(keys), n, payload)
	}
}

// FuzzCheckpointJSON holds the checkpoint payload to json.Marshal's
// bytes: each field is set or left zero by one bit of mask, Epochs and
// InteractionSeconds are nil, empty or filled, and the head frame must
// hold exactly json.Marshal's payload, or both refuse the checkpoint and
// the frame buffer keeps what it held.
func FuzzCheckpointJSON(f *testing.F) {
	strs := []string{"m-g01-i03", "<a>&b</a>", "\x00\x1f\b\f\n\r\t\"\\", "bad\xff\xc3utf8", "\u2028sep\u2029"}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e-7, 1e21, 61.25}
	for i, x := range floats {
		s := strs[i%len(strs)]
		f.Add(s, []byte(s), x, floats[(i+1)%len(floats)], int64(1700000000+i), ^uint64(0)>>(i%3), int32(19800))
		f.Add(s, []byte(nil), 0.5, x, int64(i), uint64(0xa5a5a5a5a5a5a5a5)>>i, int32(-3600*i))
	}
	f.Add("m", []byte{}, 1.0, 2.0, int64(0), uint64(0), int32(1))                // zero time, nil Epochs
	f.Add("m", []byte{0}, 1.0, 2.0, int64(0), uint64(1)<<5, int32(0))            // empty Epochs
	f.Add("m", []byte{0}, 1.0, 2.0, int64(0), uint64(1)<<4|1<<6, int32(0))       // empty InteractionSeconds and Epochs
	f.Add("m", []byte{1}, 1.0, 2.0, int64(1)<<50, ^uint64(0), int32(0))          // year past 9999
	f.Add("m", []byte{2}, 1.0, 2.0, int64(1700000000), ^uint64(0), int32(86400)) // a day's offset
	f.Fuzz(func(t *testing.T, s string, state []byte, x, y float64, n int64, mask uint64, zone int32) {
		c := fuzzCheckpoint(s, state, x, y, n, mask, zone)
		payload, werr := json.Marshal(c)
		got, gerr := appendFrame([]byte("held"), c, 0, 0)
		switch {
		case werr != nil || gerr != nil:
			if werr == nil || gerr == nil || string(got) != "held" {
				t.Fatalf("encoding/json: %v; appendFrame: %v, left %q", werr, gerr, got)
			}
		case !bytes.Equal(got, durable.AppendSection([]byte("held"), headFrame, payload)):
			t.Fatalf("appendFrame wrote\n%q\nencoding/json\n%s", got, payload)
		}
	})
}
