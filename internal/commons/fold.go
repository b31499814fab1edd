package commons

// A store's record trails are the fold of its events file: epoch 1
// starts a model's chain of epochs, epoch k+1 extends it and any other
// epoch breaks it, model_resume k cuts it back to its first k epochs,
// and model_done commits the chain with the record the event carries. A
// commit that makes no valid record (no record, a chain of another
// length, an id that is not one path element) commits nothing. Lines
// that do not decode are skipped, as every reader of the journal skips
// them, so the fold never fails on content.
//
// The fold is lazy: the first read folds the file, and later reads fold
// only the bytes appended since. A live run's journal appends each line
// whole before its Emit returns, so the file is all a read needs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"a4nn/internal/lineage"
	"a4nn/internal/obs"
)

type fold struct {
	records map[string]*lineage.Record
	// chains holds each model in flight (an epoch or resume event no
	// model_done has committed) with its contiguous epochs 1..k.
	chains map[string][]lineage.EpochEntry
	off    int64 // the bytes of the file folded
}

func newFold() *fold {
	return &fold{records: make(map[string]*lineage.Record), chains: make(map[string][]lineage.EpochEntry)}
}

func (f *fold) apply(e *obs.Event) {
	chain := f.chains[e.Model]
	switch {
	case e.Type == obs.EventEpoch && (e.Epoch == 1 || e.Epoch > 1 && e.Epoch == len(chain)+1):
		f.chains[e.Model] = append(chain[:e.Epoch-1], e.EpochEntry())
	case e.Type == obs.EventModelResume && e.Epoch >= 0 && e.Epoch <= len(chain):
		f.chains[e.Model] = chain[:e.Epoch]
	case e.Type == obs.EventEpoch || e.Type == obs.EventModelResume:
		f.chains[e.Model] = nil
	case e.Type == obs.EventModelDone:
		// The record takes the chain over; a next attempt starts afresh.
		delete(f.chains, e.Model)
		if r := e.Record; r != nil && r.ID == e.Model && e.Epochs == len(chain) && checkID(r.ID) == nil {
			r.Epochs = chain[:len(chain):len(chain)]
			if r.Validate() == nil {
				f.records[r.ID] = r
			}
		}
	}
}

// foldedTypes are the type members of the lines the fold applies, as
// the journal writes them: read skips any other line undecoded.
var foldedTypes = [][]byte{[]byte(`"type":"epoch"`), []byte(`"type":"model_resume"`), []byte(`"type":"model_done"`)}

// read brings the store's fold up to date with its events file and
// calls fn with it.
func (s *Store) read(fn func(*fold)) error {
	s.readMu.Lock()
	defer s.readMu.Unlock()
	if s.fold == nil {
		s.fold = newFold()
	}
	f, path := s.fold, s.eventsPath()
	file, err := os.Open(path)
	if err == nil {
		var data []byte
		data, err = io.ReadAll(io.NewSectionReader(file, f.off, 1<<62))
		file.Close()
		f.feed(data)
	}
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("commons: read %s: %w", path, err)
	}
	fn(f)
	return nil
}

// feed folds data, the events file's bytes from f.off on, and advances
// f.off past what it took: every complete line but a final one that does
// not decode yet, an append in flight, which the next read takes again.
func (f *fold) feed(data []byte) {
	for data = data[:bytes.LastIndexByte(data, '\n')+1]; len(data) > 0; {
		line, rest, _ := bytes.Cut(data, []byte{'\n'})
		if slices.ContainsFunc(foldedTypes, func(t []byte) bool { return bytes.Contains(line, t) }) {
			var e obs.Event
			if json.Unmarshal(line, &e) == nil {
				f.apply(&e)
			} else if len(rest) == 0 {
				return
			}
		}
		f.off += int64(len(line) + 1)
		data = rest
	}
}

// Unfinished returns each model in flight with its contiguous journaled
// epochs 1..k: what -resume continues.
func (s *Store) Unfinished() (map[string][]lineage.EpochEntry, error) {
	out := make(map[string][]lineage.EpochEntry)
	err := s.read(func(f *fold) {
		for id, chain := range f.chains {
			out[id] = slices.Clone(chain)
		}
	})
	return out, err
}
