package commons

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"a4nn/internal/lineage"
	"a4nn/internal/obs"
)

func record(id, beam string, fitness float64, epochs int, terminated bool) *lineage.Record {
	r := &lineage.Record{
		ID:            id,
		Genome:        "1010001",
		NodesPerPhase: 4,
		Beam:          beam,
		FinalFitness:  fitness,
		CreatedAt:     time.Now(),
	}
	for e := 1; e <= epochs; e++ {
		r.Epochs = append(r.Epochs, lineage.EpochEntry{Epoch: e, ValAccuracy: fitness - 5, SimSeconds: 2})
	}
	r.Terminated = terminated
	if terminated {
		r.TerminationEpoch = epochs
	}
	return r
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty path must fail")
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if s.Root() == "" {
		t.Fatal("Root must be set")
	}
}

func TestPutGetRecord(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := record("m1", "low", 91.5, 10, true)
	if err := s.PutRecord(r); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetRecord("m1")
	if err != nil {
		t.Fatal(err)
	}
	if got.FinalFitness != 91.5 || got.Beam != "low" || got.EpochsTrained() != 10 {
		t.Fatalf("got %+v", got)
	}
	if _, err := s.GetRecord("missing"); err == nil {
		t.Fatal("missing record must fail")
	}
	if err := s.PutRecord(&lineage.Record{}); err == nil {
		t.Fatal("invalid record must be rejected")
	}
}

func TestSnapshots(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSnapshot("m1", 1, []byte("state-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSnapshot("m1", 3, []byte("state-3")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSnapshot("m1", 0, nil); err == nil {
		t.Fatal("epoch 0 must be rejected")
	}
	got, err := s.GetSnapshot("m1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "state-3" {
		t.Fatalf("snapshot = %q", got)
	}
	epochs, err := s.Snapshots("m1")
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 2 || epochs[0] != 1 || epochs[1] != 3 {
		t.Fatalf("epochs = %v", epochs)
	}
	none, err := s.Snapshots("nobody")
	if err != nil || none != nil {
		t.Fatalf("missing model: %v, %v", none, err)
	}
	if _, err := s.GetSnapshot("m1", 2); err == nil {
		t.Fatal("missing snapshot must fail")
	}
}

func TestListAllQuery(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*lineage.Record{
		record("b", "low", 80, 25, false),
		record("a", "low", 95, 12, true),
		record("c", "high", 99, 8, true),
	} {
		if err := s.PutRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != "a" || ids[2] != "c" {
		t.Fatalf("ids = %v", ids)
	}
	all, err := s.All()
	if err != nil || len(all) != 3 {
		t.Fatalf("All: %v, %v", len(all), err)
	}
	hi, err := s.Query(func(r *lineage.Record) bool { return r.FinalFitness > 90 })
	if err != nil {
		t.Fatal(err)
	}
	if len(hi) != 2 {
		t.Fatalf("query returned %d", len(hi))
	}
}

func TestSummarize(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*lineage.Record{
		record("a", "low", 90, 10, true),
		record("b", "low", 80, 25, false),
		record("c", "high", 99, 8, true),
	} {
		if err := s.PutRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := s.Summarize("low")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 2 || sum.TotalEpochsTrained != 35 || sum.TerminatedEarly != 1 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.MeanFinalFitness != 85 || sum.BestFinalFitness != 90 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.MeanEpochsTrained != 17.5 {
		t.Fatalf("mean epochs %v", sum.MeanEpochsTrained)
	}
	if sum.TotalSimSeconds != 70 {
		t.Fatalf("sim seconds %v", sum.TotalSimSeconds)
	}
	all, err := s.Summarize("")
	if err != nil || all.Records != 3 {
		t.Fatalf("all-beam summary %+v, %v", all, err)
	}
	empty, err := s.Summarize("medium")
	if err != nil || empty.Records != 0 {
		t.Fatalf("empty summary %+v", empty)
	}
}

// TestCorruptedRecordSurfacesError: an events file the store cannot
// read fails every read of its records, rather than reading as an
// empty store.
func TestCorruptedRecordSurfacesError(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(s.Root(), obs.EventsFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetRecord("good"); err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("unreadable journal: GetRecord returned %v", err)
	}
	if _, err := s.All(); err == nil {
		t.Fatal("All over an unreadable journal must surface an error")
	}
	if _, err := s.Summarize(""); err == nil {
		t.Fatal("Summarize over an unreadable journal must surface an error")
	}
}

// TestCorruptRecordIsTyped: what a crash or tampering leaves of a
// record's journal lines (a torn model_done, a commit that does not
// match its epochs) commits nothing, and the model reads as missing,
// fs.ErrNotExist, which -resume retrains. ErrCorrupt is for files.
func TestCorruptRecordIsTyped(t *testing.T) {
	dir := t.TempDir()
	good, torn := record("good", "low", 90, 2, false), record("torn", "low", 80, 2, false)
	var lines []byte
	for i, r := range []*lineage.Record{good, torn} {
		for _, e := range r.Epochs {
			ev := obs.EpochEvent(r.ID, 0, &e)
			lines = appendLine(t, lines, &ev)
		}
		done := doneEvent(r)
		line := appendLine(t, nil, &done)
		if i == 1 {
			// The kill tore the commit; the next append's open
			// terminated the fragment.
			line = append(line[:len(line)/2], '\n')
		}
		lines = append(lines, line...)
	}
	mismatch := doneEvent(record("short", "low", 80, 2, false))
	mismatch.Epochs = 3
	lines = appendLine(t, lines, &mismatch)
	if err := os.WriteFile(filepath.Join(dir, obs.EventsFile), lines, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetRecord("good"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"torn", "short", "absent"} {
		_, err := s.GetRecord(id)
		if !errors.Is(err, fs.ErrNotExist) || errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: want fs.ErrNotExist, got %v", id, err)
		}
	}
}

// doneEvent is the model_done event that commits r after its epochs.
func doneEvent(r *lineage.Record) obs.Event {
	head := *r
	head.Epochs = nil
	return obs.Event{Type: obs.EventModelDone, Gen: r.Generation, Model: r.ID, Fitness: r.FinalFitness,
		Epochs: len(r.Epochs), Terminated: r.Terminated, Record: &head}
}

// appendLine appends e's journal line to dst.
func appendLine(t *testing.T, dst []byte, e *obs.Event) []byte {
	t.Helper()
	dst, err := e.AppendJSON(dst)
	if err != nil {
		t.Fatal(err)
	}
	return append(dst, '\n')
}

// TestAtomicWritesLeaveNoTempFiles: neither the journal appends of
// PutRecord nor the atomic replaces of snapshots and an export leave a
// temp file, and a record put again replaces the first.
func TestAtomicWritesLeaveNoTempFiles(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.PutRecord(record(fmt.Sprintf("r%d", i), "low", 90, 2, false)); err != nil {
			t.Fatal(err)
		}
		if err := s.PutSnapshot(fmt.Sprintf("r%d", i), 1, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutRecord(record("r0", "low", 95, 3, true)); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetRecord("r0")
	if err != nil {
		t.Fatal(err)
	}
	if got.FinalFitness != 95 || got.EpochsTrained() != 3 {
		t.Fatalf("overwrite lost: fitness %v, %d epochs", got.FinalFitness, got.EpochsTrained())
	}
	for range 2 {
		if n, err := s.Export(); err != nil || n != 5 {
			t.Fatalf("Export = %d, %v", n, err)
		}
	}
	var temps []string
	err = filepath.Walk(s.Root(), func(path string, info os.FileInfo, err error) error {
		if err == nil && strings.Contains(filepath.Base(path), ".tmp-") {
			temps = append(temps, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) != 0 {
		t.Fatalf("temp files left behind: %v", temps)
	}
	ids, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 {
		t.Fatalf("List sees %d records, want 5", len(ids))
	}
}

func TestStoreIgnoresForeignFiles(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRecord(record("m", "low", 90, 2, false)); err != nil {
		t.Fatal(err)
	}
	// The records directory is export output: nothing placed there is
	// a record.
	if err := os.MkdirAll(filepath.Join(s.Root(), "records"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"README.txt", "planted.json"} {
		if err := os.WriteFile(filepath.Join(s.Root(), "records", name), []byte(`{"id":"planted","genome":"1"}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "m" {
		t.Fatalf("ids = %v", ids)
	}
	// Stray files in a model dir must not be parsed as snapshots.
	if err := s.PutSnapshot("m", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Root(), "models", "m", "notes.md"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	snaps, err := s.Snapshots("m")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0] != 1 {
		t.Fatalf("snaps = %v", snaps)
	}
}

func TestConcurrentWrites(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := record(fmt.Sprintf("m%02d", i), "low", 90, 4, i%2 == 0)
			if err := s.PutRecord(r); err != nil {
				t.Error(err)
			}
			if err := s.PutSnapshot(r.ID, 1, []byte{byte(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	ids, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 16 {
		t.Fatalf("store has %d records", len(ids))
	}
}

// TestListingsIgnoreOrphanTempFiles plants what a kill between temp
// write and rename leaves behind (until the next resume sweeps it): no
// listing may mistake a leftover, or any other near-miss name, for data.
func TestListingsIgnoreOrphanTempFiles(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSnapshot("m1", 3, []byte("state-3")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRecord(record("r0", "low", 90, 2, false)); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"models/m2", "records"} {
		if err := os.MkdirAll(filepath.Join(s.Root(), dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, rel := range []string{
		"models/m1/epoch_003.bin.tmp-1", // same epoch as a committed snapshot
		"models/m1/epoch_004.bin.tmp-22",
		"models/m1/epoch_5.binx",
		"models/m1/epoch_6.bin",           // not the zero-padded name PutSnapshot writes
		"models/m2/epoch_001.bin.tmp-333", // only the temp exists
		"records/r0.json.tmp-4",
		"checkpoints/r1.ckpt.tmp-5",
	} {
		if err := os.WriteFile(filepath.Join(s.Root(), rel), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if epochs, err := s.Snapshots("m1"); err != nil || len(epochs) != 1 || epochs[0] != 3 {
		t.Fatalf("Snapshots(m1) = %v, %v; want [3]", epochs, err)
	}
	if epochs, err := s.Snapshots("m2"); err != nil || len(epochs) != 0 {
		t.Fatalf("Snapshots(m2) = %v, %v; want none", epochs, err)
	}
	if ids, _ := s.List(); len(ids) != 1 {
		t.Fatalf("List = %v, want [r0]", ids)
	}
	if ids, _ := s.Checkpoints(); len(ids) != 0 {
		t.Fatalf("Checkpoints = %v, want none", ids)
	}
}
