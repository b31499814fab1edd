package tsdb

import (
	"errors"
	"sort"
)

// ErrNoSeries is returned by Query for a series the store has never
// seen (HTTP handlers map it to 404).
var ErrNoSeries = errors.New("tsdb: unknown series")

// Point is one query-result sample. Gap marks a point separated from
// its predecessor by at least one empty step (raw queries: by more
// than 4× the median sample spacing) — the query-side record of a
// crash or a pause.
type Point struct {
	T   int64   `json:"t"` // unix milliseconds (bucket start when stepped)
	V   float64 `json:"v"`
	Gap bool    `json:"gap,omitempty"`
}

// Result is one series' query response.
type Result struct {
	Series string  `json:"series"`
	StepMS int64   `json:"step_ms,omitempty"`
	Points []Point `json:"points"`
}

// SeriesInfo summarises one stored series.
type SeriesInfo struct {
	Name    string `json:"name"`
	Samples int    `json:"samples"`
	MinT    int64  `json:"min_t"`
	MaxT    int64  `json:"max_t"`
}

// Query returns the samples of a series inside [fromMS, toMS] (unix
// milliseconds; from ≤ 0 means the beginning of the series, to ≤ 0
// means its end). stepMS > 0 downsamples to step-aligned buckets, each
// the mean of its raw samples; empty buckets are elided and the next
// point is gap-annotated instead, so a killed-and-resumed run reads as
// one monotone series with an explicit hole.
func (db *DB) Query(series string, fromMS, toMS, stepMS int64) (Result, error) {
	res := Result{Series: series}
	if stepMS > 0 {
		res.StepMS = stepMS
	}
	if db == nil {
		return res, ErrNoSeries
	}
	db.mu.Lock()
	s := db.series[series]
	if s == nil {
		db.mu.Unlock()
		return res, ErrNoSeries
	}
	ts, vs := window(s, fromMS, toMS)
	db.mu.Unlock()
	if len(ts) == 0 {
		return res, nil
	}
	if stepMS <= 0 {
		res.Points = rawPoints(ts, vs)
		return res, nil
	}
	var lastBucket int64
	for i := 0; i < len(ts); {
		b := ts[i] - floorMod(ts[i], stepMS)
		sum, n := 0.0, 0
		for i < len(ts) && ts[i] < b+stepMS {
			sum += vs[i]
			n++
			i++
		}
		p := Point{T: b, V: sum / float64(n)}
		if len(res.Points) > 0 && b-lastBucket > stepMS {
			p.Gap = true
		}
		lastBucket = b
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// rawPoints copies samples verbatim and gap-annotates any spacing over
// 4× the median inter-sample delta.
func rawPoints(ts []int64, vs []float64) []Point {
	pts := make([]Point, len(ts))
	var deltas []int64
	for i := range ts {
		pts[i] = Point{T: ts[i], V: vs[i]}
		if i > 0 {
			deltas = append(deltas, ts[i]-ts[i-1])
		}
	}
	if len(deltas) == 0 {
		return pts
	}
	sorted := append([]int64(nil), deltas...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	median := sorted[len(sorted)/2]
	if median <= 0 {
		return pts
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T-pts[i-1].T > 4*median {
			pts[i].Gap = true
		}
	}
	return pts
}

// window copies the in-range slice of a series (caller holds db.mu).
func window(s *memSeries, fromMS, toMS int64) ([]int64, []float64) {
	lo := 0
	if fromMS > 0 {
		lo = sort.Search(len(s.ts), func(i int) bool { return s.ts[i] >= fromMS })
	}
	hi := len(s.ts)
	if toMS > 0 {
		hi = sort.Search(len(s.ts), func(i int) bool { return s.ts[i] > toMS })
	}
	if lo >= hi {
		return nil, nil
	}
	return append([]int64(nil), s.ts[lo:hi]...), append([]float64(nil), s.vs[lo:hi]...)
}

// Series lists every stored series, sorted by name.
func (db *DB) Series() []SeriesInfo {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	infos := make([]SeriesInfo, 0, len(db.series))
	for _, name := range db.sortedNamesLocked() {
		s := db.series[name]
		info := SeriesInfo{Name: name, Samples: len(s.ts)}
		if len(s.ts) > 0 {
			info.MinT, info.MaxT = s.ts[0], s.ts[len(s.ts)-1]
		}
		infos = append(infos, info)
	}
	return infos
}

// Bounds returns the store-wide sample time range (zeroes when empty).
func (db *DB) Bounds() (minT, maxT int64) {
	for _, info := range db.Series() {
		if info.Samples == 0 {
			continue
		}
		if minT == 0 || info.MinT < minT {
			minT = info.MinT
		}
		if info.MaxT > maxT {
			maxT = info.MaxT
		}
	}
	return minT, maxT
}

// Mean reports the mean and sample count of a series over [fromMS,
// toMS]. Its signature satisfies the health engine's regression
// QueryFunc, which is how cross-run baselines are checked without
// internal/health importing this package. Nil-safe and unknown-series
// safe: both report zero samples.
func (db *DB) Mean(series string, fromMS, toMS int64) (float64, int) {
	if db == nil {
		return 0, 0
	}
	res, err := db.Query(series, fromMS, toMS, 0)
	if err != nil || len(res.Points) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, p := range res.Points {
		sum += p.V
	}
	return sum / float64(len(res.Points)), len(res.Points)
}

// floorMod is a non-negative modulus (timestamps are positive in
// practice, but bucket alignment must not break on a negative input).
func floorMod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
