package tsdb

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"a4nn/internal/obs"
)

func TestChunkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string]struct {
		ts []int64
		vs []float64
	}{
		"single":   {[]int64{1700000000000}, []float64{42.5}},
		"constant": {[]int64{1000, 2000, 3000, 4000}, []float64{5, 5, 5, 5}},
		"specials": {
			[]int64{10, 20, 25, 1 << 40, 1<<40 + 1},
			[]float64{0, math.NaN(), math.Inf(1), math.Inf(-1), -0.0},
		},
	}
	ts := make([]int64, 500)
	vs := make([]float64, 500)
	cur := int64(1_700_000_000_000)
	for i := range ts {
		cur += 4000 + rng.Int63n(2500) - 1250
		ts[i] = cur
		vs[i] = rng.NormFloat64() * 1e6
	}
	cases["walk"] = struct {
		ts []int64
		vs []float64
	}{ts, vs}

	for name, tc := range cases {
		payload := encodeChunk(tc.ts, tc.vs)
		gotT, gotV, err := decodeChunk(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(gotT) != len(tc.ts) {
			t.Fatalf("%s: %d samples, want %d", name, len(gotT), len(tc.ts))
		}
		for i := range gotT {
			if gotT[i] != tc.ts[i] {
				t.Fatalf("%s: t[%d] = %d, want %d", name, i, gotT[i], tc.ts[i])
			}
			if math.Float64bits(gotV[i]) != math.Float64bits(tc.vs[i]) {
				t.Fatalf("%s: v[%d] = %v, want %v", name, i, gotV[i], tc.vs[i])
			}
		}
	}
}

func TestOpenAppendReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenFile(filepath.Join(dir, SeriesFile), Options{SealSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	if OpenDBs() == 0 {
		t.Fatal("open writable DB not counted")
	}
	for i := 0; i < 10; i++ {
		db.Append("a", int64(1000+i*100), float64(i))
		db.Append("b", int64(1000+i*100), float64(-i))
	}
	db.Append("a", 900, 99) // out of order: dropped
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if OpenDBs() != 0 {
		t.Fatalf("OpenDBs = %d after close", OpenDBs())
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Query("a", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 10 {
		t.Fatalf("reopened series a has %d points, want 10", len(res.Points))
	}
	for i, p := range res.Points {
		if p.T != int64(1000+i*100) || p.V != float64(i) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
	// Appending continues the same file.
	db2.Append("a", 5000, 10)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := db3.Query("a", 0, 0, 0); len(res.Points) != 11 {
		t.Fatalf("after reopen+append: %d points, want 11", len(res.Points))
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SeriesFile)
	db, err := OpenFile(path, Options{SealSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ { // 3 sealed blocks of 4
		db.Append("s", int64(1000+i*50), float64(i))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blocks, _, derr := DecodeBlocks(data)
	if derr != nil || len(blocks) != 3 {
		t.Fatalf("pre-truncate: %d blocks, err %v", len(blocks), derr)
	}
	// Tear the final block mid-payload, the way a SIGKILL mid-append
	// would.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenFile(path, Options{SealSamples: 4})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	res, err := db2.Query("s", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 8 {
		t.Fatalf("recovered %d samples, want the 8 from complete blocks", len(res.Points))
	}
	// The torn tail was truncated, so appends produce a clean file.
	db2.Append("s", 9000, 99)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeBlocks(data); err != nil {
		t.Fatalf("file still torn after recovery+append: %v", err)
	}
}

func TestQueryStepAndGaps(t *testing.T) {
	db := &DB{series: make(map[string]*memSeries)}
	s := &memSeries{}
	db.series["x"] = s
	// Two clusters of samples with a hole between 3000 and 9000.
	for _, t0 := range []int64{1000, 1500, 2000, 2500, 9000, 9500} {
		s.ts = append(s.ts, t0)
		s.vs = append(s.vs, float64(t0))
	}
	res, err := db.Query("x", 0, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := []Point{
		{T: 1000, V: 1250},
		{T: 2000, V: 2250},
		{T: 9000, V: 9250, Gap: true},
	}
	if len(res.Points) != len(want) {
		t.Fatalf("points = %+v", res.Points)
	}
	for i, p := range res.Points {
		if p != want[i] {
			t.Fatalf("point %d = %+v, want %+v", i, p, want[i])
		}
	}
	// Raw query gap-annotates the same hole.
	res, err = db.Query("x", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	gaps := 0
	for _, p := range res.Points {
		if p.Gap {
			gaps++
		}
	}
	if gaps != 1 {
		t.Fatalf("raw query marked %d gaps, want 1: %+v", gaps, res.Points)
	}
	// Window restriction.
	res, err = db.Query("x", 1500, 2500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("windowed query: %+v", res.Points)
	}
	if _, err := db.Query("missing", 0, 0, 0); err != ErrNoSeries {
		t.Fatalf("unknown series error = %v", err)
	}
}

func TestMeanAndBounds(t *testing.T) {
	db := &DB{series: make(map[string]*memSeries)}
	db.series["m"] = &memSeries{ts: []int64{10, 20, 30}, vs: []float64{1, 2, 6}}
	mean, n := db.Mean("m", 0, 0)
	if n != 3 || mean != 3 {
		t.Fatalf("mean = %v over %d", mean, n)
	}
	mean, n = db.Mean("m", 15, 0)
	if n != 2 || mean != 4 {
		t.Fatalf("windowed mean = %v over %d", mean, n)
	}
	if _, n := db.Mean("nope", 0, 0); n != 0 {
		t.Fatalf("unknown series mean reported %d samples", n)
	}
	var nilDB *DB
	if _, n := nilDB.Mean("m", 0, 0); n != 0 {
		t.Fatal("nil DB mean reported samples")
	}
	lo, hi := db.Bounds()
	if lo != 10 || hi != 30 {
		t.Fatalf("bounds = %d..%d", lo, hi)
	}
}

func TestSamplerVisitsRegistry(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	reg := obs.NewRegistry()
	reg.Counter("jobs_total").Add(3)
	reg.Gauge("depth").Set(1.5)
	reg.Histogram("lat", []float64{1, 10}).Observe(2)
	reg.Scope("job", "j1").Gauge("depth").Set(7)

	pres := 0
	s := NewSampler(db, reg, time.Hour)
	s.SetPreSample(func() { pres++ })
	s.SampleNow()
	time.Sleep(2 * time.Millisecond) // distinct sample timestamps
	s.SampleNow()
	s.Close()
	if pres != 3 { // two explicit + one final on Close
		t.Fatalf("pre-sample hook ran %d times, want 3", pres)
	}
	for _, name := range []string{
		"jobs_total", "depth", "lat_count", "lat_sum", "lat_p99", `depth{job="j1"}`,
	} {
		res, err := db.Query(name, 0, 0, 0)
		if err != nil {
			t.Fatalf("series %q missing: %v", name, err)
		}
		if len(res.Points) == 0 {
			t.Fatalf("series %q empty", name)
		}
	}
	mean, _ := db.Mean("jobs_total", 0, 0)
	if mean != 3 {
		t.Fatalf("jobs_total mean = %v", mean)
	}
	if mean, _ := db.Mean(`depth{job="j1"}`, 0, 0); mean != 7 {
		t.Fatalf("scoped gauge mean = %v", mean)
	}
}

func TestSamplerGoroutineLifecycle(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.Gauge("g").Set(1)
	s := NewSampler(db, reg, time.Millisecond)
	s.Start()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	s.Close() // idempotent
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("g", 0, 0, 0)
	if err != nil || len(res.Points) == 0 {
		t.Fatalf("ticker samples missing: %v %+v", err, res)
	}
}

func TestNilDisabledStore(t *testing.T) {
	var db *DB
	var s *Sampler
	db.Append("x", 1, 1)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db.Series() != nil {
		t.Fatal("nil DB listed series")
	}
	s.SampleNow()
	s.Start()
	s.Close()
	s.SetPreSample(func() {})
}
