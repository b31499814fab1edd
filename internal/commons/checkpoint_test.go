package commons

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
// epochs, as the training loop hands them to its checkpoint sink: each
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

// frameLog is testdata/frame_log.ckpt: three epochs of one model as the
// per-epoch frame log of earlier builds wrote them, a whole first frame
// and then one suffix frame per epoch. Its digest was that writer's
// golden.
func frameLog(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "frame_log.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	const golden = "80bf78a804a9e413c9437882dd80c968c81fd396bd9d5faa42f51eda8d93b863"
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != golden {
		t.Fatalf("testdata/frame_log.ckpt is not the frame log it was recorded as")
	}
	return data
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
		{"bad JSON", func([]byte) []byte { return durable.AppendSection(nil, frameName, []byte("{")) }, "decode"},
		{"invalid", func([]byte) []byte { return durable.AppendSection(nil, frameName, []byte(`{"id":"m"}`)) }, "validate"},
		{"second frame", func(b []byte) []byte { return append(b, b...) }, "magic"},
		{"bytes after the frame", func(b []byte) []byte { return append(b, 0, 0) }, "magic"},
		{"frame log", func([]byte) []byte { return frameLog(t) }, "magic"},
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

// putEveryEpoch puts each of n epochs' checkpoints of model "m" into s,
// as the runner's checkpoint sink does, and calls check after each put
// with the file's bytes and the checkpoint put.
func putEveryEpoch(t *testing.T, s *Store, n, stateSize int, check func(data []byte, c *Checkpoint)) {
	t.Helper()
	for _, c := range epochCheckpoints("m", n, stateSize) {
		if err := s.PutCheckpoint(c); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(s.checkpointPath("m"))
		if err != nil {
			t.Fatal(err)
		}
		check(data, c)
	}
}

// TestCheckpointLogFoldEqualsPut: a file written by one put per epoch
// reads back, after every epoch, as that epoch's checkpoint, and holds
// the bytes a single PutCheckpoint of it into an empty store writes.
func TestCheckpointLogFoldEqualsPut(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putEveryEpoch(t, s, 18, 0, func(data []byte, c *Checkpoint) {
		got, err := s.GetCheckpoint("m")
		if err != nil {
			t.Fatal(err)
		}
		sameCheckpoint(t, fmt.Sprintf("epoch %d", c.Epoch), got, c)
		once, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := once.PutCheckpoint(c); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(once.checkpointPath("m"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("epoch %d: file after %d puts differs from one put", c.Epoch, c.Epoch)
		}
	})
}

// TestCheckpointLogRewritesPastBound: with weights-sized states every
// epoch's put rewrites the file as one frame, byte-equal to
// EncodeCheckpoint of that epoch's checkpoint, so the file never grows
// past one checkpoint.
func TestCheckpointLogRewritesPastBound(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putEveryEpoch(t, s, 6, 4096, func(data []byte, c *Checkpoint) {
		want, err := EncodeCheckpoint(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("epoch %d: file of %d bytes is not EncodeCheckpoint's %d", c.Epoch, len(data), len(want))
		}
	})
}

// TestCheckpointLogFreshAndResumed: a fresh attempt (no file) and a
// resumed one (a longer file left behind, here a frame log of an
// earlier build) write the same file from their first put on, and the
// delete after the record commits leaves none.
func TestCheckpointLogFreshAndResumed(t *testing.T) {
	fresh, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old := frameLog(t)
	if err := os.WriteFile(resumed.checkpointPath("m"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	var freshFiles [][]byte
	putEveryEpoch(t, fresh, 2, 0, func(data []byte, _ *Checkpoint) {
		freshFiles = append(freshFiles, data)
	})
	putEveryEpoch(t, resumed, 2, 0, func(data []byte, c *Checkpoint) {
		if len(data) >= len(old) {
			t.Fatalf("epoch %d: %d bytes, the old %d-byte file was not replaced", c.Epoch, len(data), len(old))
		}
		if !bytes.Equal(data, freshFiles[c.Epoch-1]) {
			t.Fatalf("epoch %d: resumed file differs from the fresh one", c.Epoch)
		}
	})
	for _, s := range []*Store{fresh, resumed} {
		if err := s.DeleteCheckpoint("m"); err != nil {
			t.Fatal(err)
		}
		if ids, _ := s.Checkpoints(); len(ids) != 0 {
			t.Fatalf("delete left %v", ids)
		}
	}
}

// TestCheckpointCutAtEveryOffset: a checkpoint file cut anywhere short of
// its end is truncated, never a checkpoint.
func TestCheckpointCutAtEveryOffset(t *testing.T) {
	c := epochCheckpoints("m", 3, 0)[2]
	data, err := EncodeCheckpoint(c)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(data); k++ {
		got, err := DecodeCheckpoint("cut.ckpt", data[:k])
		var ce *CorruptionError
		if !errors.As(err, &ce) || ce.Reason != "truncated" || got != nil {
			t.Fatalf("cut at %d of %d: %v, %v; want a truncated CorruptionError", k, len(data), got, err)
		}
	}
	got, err := DecodeCheckpoint("whole.ckpt", data)
	if err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, "whole file", got, c)
}

// TestCheckpointFlipEveryByte: a checkpoint file with any one byte
// damaged decodes to a typed CorruptionError or to the checkpoint that
// was written — never a panic or a different checkpoint.
func TestCheckpointFlipEveryByte(t *testing.T) {
	c := epochCheckpoints("m", 3, 0)[2]
	data, err := EncodeCheckpoint(c)
	if err != nil {
		t.Fatal(err)
	}
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
		sameCheckpoint(t, fmt.Sprintf("flip at %d", i), got, c)
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
	multi := frameLog(f)
	f.Add(multi)
	f.Add(multi[:len(multi)-3])
	f.Add(append(valid, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint("fuzz.ckpt", data)
		if err == nil {
			if c == nil || c.Validate() != nil {
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

// realStateSize is the size of a real-training ResumeState at the
// 16×16 shapes (widths 4/8/8): what a checkpoint file mostly holds.
const realStateSize = 81 << 10

// BenchmarkCheckpointFrame is one whole checkpoint file, a real-training
// model's tenth epoch, encoded into a reused buffer. The bench gate
// holds it at 0 allocs/op.
func BenchmarkCheckpointFrame(b *testing.B) {
	c := epochCheckpoints("m-g03-i07", 10, realStateSize)[9]
	buf, err := appendFrame(nil, c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = appendFrame(buf[:0], c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointModel is one real-training model's checkpoint
// traffic over ten epochs: a whole file put per epoch, then the delete
// that follows its record's commit.
func BenchmarkCheckpointModel(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cps := epochCheckpoints("m-g03-i07", 10, realStateSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cps {
			if err := s.PutCheckpoint(c); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.DeleteCheckpoint(cps[0].ID); err != nil {
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
// InteractionSeconds are nil, empty or filled, and the frame must
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
		got, gerr := appendFrame([]byte("held"), c)
		switch {
		case werr != nil || gerr != nil:
			if werr == nil || gerr == nil || string(got) != "held" {
				t.Fatalf("encoding/json: %v; appendFrame: %v, left %q", werr, gerr, got)
			}
		case !bytes.Equal(got, durable.AppendSection([]byte("held"), frameName, payload)):
			t.Fatalf("appendFrame wrote\n%q\nencoding/json\n%s", got, payload)
		}
	})
}
