package tsdb

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"a4nn/internal/durable"
)

// SeriesFile is the on-disk name of a run's series store inside its
// commons (or job) directory, next to events.jsonl and alerts.jsonl.
const SeriesFile = "series.a4ts"

// sealSamples is how many samples a series buffers before its run is
// compressed and appended as one CRC-framed block. Small on
// purpose: at the default 5s sampling interval a block seals every
// ~80s, bounding what a SIGKILL can lose to one short, queryable gap.
const sealSamples = 16

// openDBs counts writable DBs that have been opened and not yet
// closed, mirroring obs.ArmedRecorders: the job-manager leak test
// asserts it returns to zero after a hundred job lifecycles.
var openDBs atomic.Int64

// OpenDBs reports the number of currently open writable DBs.
func OpenDBs() int { return int(openDBs.Load()) }

// Options tunes a writable store.
type Options struct {
	// SealSamples overrides sealSamples (tests use tiny values to force
	// frequent blocks).
	SealSamples int
}

// memSeries holds one series' full sample history in memory (the disk
// file is the durability story; memory is the query index — at the
// default interval a multi-hour run is a few thousand points per
// series). Samples [0:persisted) are sealed on disk.
type memSeries struct {
	ts        []int64
	vs        []float64
	persisted int
}

// DB is a single-file metrics time-series store. A nil *DB is a valid
// disabled store: Append and Close are no-ops costing one branch, so
// runs without -history pay nothing.
type DB struct {
	mu      sync.Mutex
	f       *durable.Log // nil for read-only stores
	series  map[string]*memSeries
	seal    int
	werr    error // first append-path write error, surfaced by Flush/Close
	closed  bool
	counted bool
}

// Open opens (or creates) the writable series store in dir with
// default options.
func Open(dir string) (*DB, error) {
	return OpenFile(filepath.Join(dir, SeriesFile), Options{})
}

// OpenFile opens (or creates) a writable store at an explicit path.
// Reopening after a crash decodes every complete block and truncates a
// torn tail before appending resumes, so a killed run continues the
// same series file with at most one sampling gap.
func OpenFile(path string, o Options) (*DB, error) {
	seal := o.SealSamples
	if seal <= 0 {
		seal = sealSamples
	}
	db := &DB{series: make(map[string]*memSeries), seal: seal}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	good := 0 // a missing or empty file starts from its header
	if len(data) > 0 {
		blocks, n, derr := DecodeBlocks(data)
		if derr != nil && n == 0 {
			// The header itself is unreadable: refuse to clobber what
			// might be someone else's file.
			return nil, fmt.Errorf("tsdb: %s: %w", path, derr)
		}
		db.load(blocks)
		good = n
	}
	if db.f, err = durable.OpenLog(path, int64(good)); err != nil {
		return nil, err
	}
	if good == 0 {
		if err := db.f.Append(headerBytes()); err != nil {
			db.f.Close()
			return nil, err
		}
	}
	openDBs.Add(1)
	db.counted = true
	return db, nil
}

// OpenRead opens the series store in dir read-only: no file handle is
// held, torn tails are tolerated silently, and the result does not
// count toward OpenDBs. Used by a4nn-analyze, which reads a run's
// history after the run has ended.
func OpenRead(dir string) (*DB, error) {
	path := filepath.Join(dir, SeriesFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	blocks, good, derr := DecodeBlocks(data)
	if derr != nil && good == 0 {
		return nil, fmt.Errorf("tsdb: %s: %w", path, derr)
	}
	db := &DB{series: make(map[string]*memSeries)}
	db.load(blocks)
	return db, nil
}

// load folds decoded blocks into the in-memory index. A single writer
// seals blocks in time order, so per-series concatenation preserves
// sample order; the append-path monotonicity guard keeps it that way.
func (db *DB) load(blocks []Block) {
	for _, b := range blocks {
		s := db.series[b.Series]
		if s == nil {
			s = &memSeries{}
			db.series[b.Series] = s
		}
		for i, t := range b.Times {
			if len(s.ts) > 0 && t <= s.ts[len(s.ts)-1] {
				continue
			}
			s.ts = append(s.ts, t)
			s.vs = append(s.vs, b.Values[i])
		}
		s.persisted = len(s.ts)
	}
}

// Append records one sample. Timestamps are unix milliseconds and must
// be strictly increasing per series; out-of-order samples (e.g. a
// clock step backwards across a crash/restart) are dropped rather than
// corrupting the sorted index. Nil-safe; write errors are deferred to
// Flush/Close because the sample path is best-effort.
func (db *DB) Append(name string, tMS int64, v float64) {
	if db == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed || name == "" || len(name) > maxSeriesName {
		return
	}
	s := db.series[name]
	if s == nil {
		s = &memSeries{}
		db.series[name] = s
	}
	if len(s.ts) > 0 && tMS <= s.ts[len(s.ts)-1] {
		return
	}
	s.ts = append(s.ts, tMS)
	s.vs = append(s.vs, v)
	if db.f != nil && len(s.ts)-s.persisted >= db.seal {
		if err := db.sealLocked(name, s); err != nil && db.werr == nil {
			db.werr = err
		}
	}
}

// sealLocked compresses a series' unpersisted tail into one framed
// block and appends it. O_APPEND keeps the write atomic with respect
// to a concurrent reader of the file; a SIGKILL mid-write tears only
// this block, which reopen truncates.
func (db *DB) sealLocked(name string, s *memSeries) error {
	if db.f == nil || s.persisted == len(s.ts) {
		return nil
	}
	payload := encodeChunk(s.ts[s.persisted:], s.vs[s.persisted:])
	if err := db.f.Append(appendBlock(nil, name, payload)); err != nil {
		return err
	}
	s.persisted = len(s.ts)
	return nil
}

// Flush seals every series' buffered tail and syncs the file.
func (db *DB) Flush() error {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.flushLocked(db.f.Sync)
}

// flushLocked seals every series' buffered tail, then makes it durable
// through end: the log's Sync, or on the way out its Close (which syncs
// once itself).
func (db *DB) flushLocked(end func() error) error {
	if db.closed || db.f == nil {
		return db.werr
	}
	for _, name := range db.sortedNamesLocked() {
		if err := db.sealLocked(name, db.series[name]); err != nil && db.werr == nil {
			db.werr = err
		}
	}
	if err := end(); err != nil && db.werr == nil {
		db.werr = err
	}
	return db.werr
}

// Close flushes and closes the store. Idempotent and nil-safe.
func (db *DB) Close() error {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return db.werr
	}
	err := db.flushLocked(db.f.Close)
	db.closed = true
	if db.counted {
		db.counted = false
		openDBs.Add(-1)
	}
	return err
}

func (db *DB) sortedNamesLocked() []string {
	names := make([]string, 0, len(db.series))
	for name := range db.series {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
