package commons

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"a4nn/internal/chaos"
	"a4nn/internal/lineage"
	"a4nn/internal/obs"
)

// TestFoldFollowsLiveJournal: a store attached to a run's journal reads
// each record once the journal has committed it, and a reopened store
// reads the same records.
func TestFoldFollowsLiveJournal(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	live := obs.NewJournal(0)
	if err := s.Attach(live); err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if live.Path() != filepath.Join(s.Root(), obs.EventsFile) {
		t.Fatalf("live journal opened on %q", live.Path())
	}
	if ids, err := s.List(); err != nil || len(ids) != 0 {
		t.Fatalf("fresh store lists %v, %v", ids, err)
	}
	commit := func(r *lineage.Record) {
		for i := range r.Epochs {
			if err := live.Emit(obs.EpochEvent(r.ID, 0, &r.Epochs[i])); err != nil {
				t.Fatal(err)
			}
		}
		if err := live.Emit(doneEvent(r)); err != nil {
			t.Fatal(err)
		}
	}
	commit(record("a", "low", 90, 2, false))
	if _, err := s.GetRecord("a"); err != nil {
		t.Fatal(err)
	}
	commit(record("b", "low", 80, 25, false))
	if ids, err := s.List(); err != nil || !reflect.DeepEqual(ids, []string{"a", "b"}) {
		t.Fatalf("List = %v, %v", ids, err)
	}
	commit(record("c", "high", 99, 3, true))
	if got, err := s.GetRecord("c"); err != nil || !got.Terminated {
		t.Fatalf("GetRecord(c) = %+v, %v", got, err)
	}
	// A journal appending elsewhere cannot be the store's.
	other := obs.NewJournal(0)
	if err := other.OpenFile(filepath.Join(t.TempDir(), obs.EventsFile)); err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := s.Attach(other); err == nil {
		t.Fatal("a journal of another directory was attached")
	}
	reopened, err := Open(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := s.All()
	if got, err := reopened.All(); err != nil || !reflect.DeepEqual(exported(t, got), exported(t, want)) {
		t.Fatalf("reopened store differs: %v", err)
	}
}

// TestPutRecordAppendFails: a record whose lines do not all reach the
// events file (an err rule at the journal's append point, standing in
// for a full disk) is an error from PutRecord, and no store, live or
// reopened, serves it.
func TestPutRecordAppendFails(t *testing.T) {
	t.Cleanup(func() { chaos.Install(nil) })
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRecord(record("a", "low", 90, 2, false)); err != nil {
		t.Fatal(err)
	}
	// The second of b's three appends (its second epoch), then the third
	// (its commit).
	for _, spec := range []string{"err=" + chaos.PointJournalAppend + "@2", "err=" + chaos.PointJournalAppend + "@3"} {
		plan, err := chaos.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		chaos.Install(plan)
		err = s.PutRecord(record("b", "low", 80, 2, false))
		chaos.Install(nil)
		if !chaos.IsInjected(err) {
			t.Fatalf("%s: PutRecord = %v", spec, err)
		}
		reopened, err := Open(s.Root())
		if err != nil {
			t.Fatal(err)
		}
		for _, store := range []*Store{s, reopened} {
			if ids, err := store.List(); err != nil || !reflect.DeepEqual(ids, []string{"a"}) {
				t.Fatalf("%s: List = %v, %v", spec, ids, err)
			}
		}
	}
}

// TestFoldFollowsFileAppends: a store no run is bound to (a follower
// of another process's run) reads each record once another journal has
// appended it, and a line still being written stays unread.
func TestFoldFollowsFileAppends(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.PutRecord(record("a", "low", 90, 3, false)); err != nil {
		t.Fatal(err)
	}
	if ids, err := reader.List(); err != nil || len(ids) != 1 {
		t.Fatalf("List = %v, %v", ids, err)
	}
	// Half a line: an append in flight.
	path := filepath.Join(dir, obs.EventsFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := record("b", "low", 70, 1, false)
	ev := obs.EpochEvent("b", 0, &b.Epochs[0])
	line := appendLine(t, nil, &ev)
	done := doneEvent(b)
	line = appendLine(t, line, &done)
	if _, err := f.Write(line[:len(line)-9]); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.GetRecord("b"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("half-written commit read as %v", err)
	}
	if _, err := f.Write(line[len(line)-9:]); err != nil {
		t.Fatal(err)
	}
	if got, err := reader.GetRecord("b"); err != nil || got.FinalFitness != 70 {
		t.Fatalf("GetRecord(b) = %+v, %v", got, err)
	}
}

// TestFoldResumesAndRetrains: model_resume k keeps the first k epochs
// of the attempt in flight; a retrained model's epoch 1 starts over and
// leaves its committed record in place until the new commit.
func TestFoldResumesAndRetrains(t *testing.T) {
	f := newFold()
	r := record("m", "low", 90, 4, false)
	emit := func(e obs.Event) { f.apply(&e) }
	for i := range 3 {
		emit(obs.EpochEvent("m", 0, &r.Epochs[i]))
	}
	emit(obs.Event{Type: obs.EventModelResume, Model: "m", Epoch: 2})
	if len(f.chains["m"]) != 2 {
		t.Fatalf("chain after resume 2: %d epochs", len(f.chains["m"]))
	}
	for i := 2; i < 4; i++ {
		emit(obs.EpochEvent("m", 0, &r.Epochs[i]))
	}
	emit(doneEvent(r))
	if got := f.records["m"]; got == nil || !reflect.DeepEqual(exported(t, []*lineage.Record{got}), exported(t, []*lineage.Record{r})) {
		t.Fatalf("record %+v", got)
	}
	if _, ok := f.chains["m"]; ok {
		t.Fatal("a committed model is still in flight")
	}
	emit(obs.EpochEvent("m", 0, &r.Epochs[0]))
	emit(obs.EpochEvent("m", 0, &r.Epochs[2])) // a gap breaks the chain
	if chain, ok := f.chains["m"]; !ok || chain != nil {
		t.Fatalf("broken chain = %v, %v", chain, ok)
	}
	if f.records["m"].EpochsTrained() != 4 {
		t.Fatal("the retrain touched the committed record")
	}
}

// exported renders records as their exported files.
func exported(t *testing.T, recs []*lineage.Record) []string {
	t.Helper()
	out := make([]string, len(recs))
	for i, r := range recs {
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(data)
	}
	return out
}

// FuzzRecordFold folds hostile events.jsonl bytes in memory: every
// record the fold commits validates and names one path element, every
// chain in flight holds epochs 1..k, the fold takes whole lines only, and
// nothing panics. The seed corpus also goes through a store on disk,
// where List, All and GetRecord must agree with the fold and Export must
// write every record.
func FuzzRecordFold(f *testing.F) {
	r := record("m-g00-i01", "low", 90, 2, true)
	var good []byte
	for i := range r.Epochs {
		ev := obs.EpochEvent(r.ID, 0, &r.Epochs[i])
		good, _ = ev.AppendJSON(good)
		good = append(good, '\n')
	}
	done := doneEvent(r)
	good, _ = done.AppendJSON(good)
	good = append(good, '\n')
	seeds := [][]byte{
		good,
		good[:len(good)-20],
		append(append([]byte{}, good...), good...),
		[]byte(`{"type":"model_resume","model":"m","epoch":-1}` + "\n" + `{"type":"epoch","model":"m","epoch":0}` + "\n"),
		[]byte(`{"type":"epoch","model":"../x","epoch":1}` + "\n" +
			`{"type":"model_done","model":"../x","epochs":1,"record":{"id":"../x","genome":"1"}}` + "\n"),
		[]byte(`{"type":"model_done","model":"m","epochs":0,"terminated":true,"record":{"id":"m","genome":""}}` + "\n"),
		[]byte("\n\n{\n"),
	}
	for _, data := range seeds {
		f.Add(data)
		checkStoreFold(f, data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkFold(t, data) })
}

// checkFold folds data in memory and holds the fold to its invariants.
func checkFold(t testing.TB, data []byte) *fold {
	fd := newFold()
	fd.feed(data)
	if fd.off > int64(len(data)) || fd.off > 0 && data[fd.off-1] != '\n' {
		t.Fatalf("fold took %d of %d bytes, not whole lines", fd.off, len(data))
	}
	for id, rec := range fd.records {
		if err := rec.Validate(); err != nil {
			t.Fatalf("committed an invalid record: %v", err)
		}
		if err := checkID(id); err != nil || rec.ID != id {
			t.Fatalf("record %q filed under %q: %v", rec.ID, id, err)
		}
	}
	for id, chain := range fd.chains {
		for i, e := range chain {
			if e.Epoch != i+1 {
				t.Fatalf("chain of %q holds epoch %d at %d", id, e.Epoch, i)
			}
		}
	}
	return fd
}

// checkStoreFold writes data as a store's events file and requires the
// store to serve exactly the fold's records: List, All and GetRecord
// agree, and Export writes each.
func checkStoreFold(t testing.TB, data []byte) {
	want := checkFold(t, data)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, obs.EventsFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	all, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.List()
	if err != nil || len(ids) != len(all) || len(all) != len(want.records) {
		t.Fatalf("List = %d ids, %v; All = %d; the fold commits %d", len(ids), err, len(all), len(want.records))
	}
	for i, rec := range all {
		if rec.ID != ids[i] || !reflect.DeepEqual(rec, want.records[rec.ID]) {
			t.Fatalf("record %q at %d, List has %q; the fold has %+v", rec.ID, i, ids[i], want.records[rec.ID])
		}
		got, err := s.GetRecord(rec.ID)
		if err != nil || !reflect.DeepEqual(got, rec) {
			t.Fatalf("GetRecord(%q) = %+v, %v", rec.ID, got, err)
		}
	}
	if n, err := s.Export(); err != nil || n != len(all) {
		t.Fatalf("Export = %d, %v", n, err)
	}
}
