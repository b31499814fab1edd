package main

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"a4nn/internal/lineage"
)

func TestPercentilePicker(t *testing.T) {
	xs := make([]float64, 0, 101)
	for i := 100; i >= 0; i-- { // 0..100, unsorted
		xs = append(xs, float64(i))
	}
	if got := median(xs); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// 101 samples: the highest value with ten samples beyond it is 90,
	// which 91 of the 101 samples do not exceed.
	v, pct := tail(xs)
	if v != 90 || math.Abs(pct-100*91.0/101) > 1e-9 {
		t.Errorf("tail = %v at p%v, want 90 at p%v", v, pct, 100*91.0/101)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailMinBeyond {
		t.Errorf("%d samples beyond the tail value, want %d", beyond, tailMinBeyond)
	}
	// Too few samples for a tail: the median, labelled as such.
	if v, pct := tail([]float64{3, 1, 2}); v != 2 || pct != 50 {
		t.Errorf("tail of three = %v at p%v, want the median", v, pct)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},               // root
		{ID: 2, Parent: 1, Start: 10, End: 40},    // child
		{ID: 3, Parent: 1, Start: 30, End: 60},    // overlaps child 2: union is [10,60)
		{ID: 4, Parent: 1, Start: 90, End: 120},   // runs past the parent: clipped to [90,100)
		{ID: 5, Parent: 2, Start: 15, End: 20},    // grandchild counts against 2, not 1
		{ID: 6, Parent: 0, Start: 200, End: 250},  // another root, no children
		{ID: 7, Parent: 3, Start: 30, End: 60},    // covers its parent entirely
		{ID: 8, Parent: 6, Start: 210, End: 210},  // empty child
		{ID: 9, Parent: 99, Start: 0, End: 1000},  // orphan: no parent to charge
		{ID: 10, Parent: 6, Start: 100, End: 190}, // entirely before its parent
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 40, 2: 25, 3: 0, 4: 30, 5: 5, 6: 50, 7: 30, 8: 0, 9: 1000, 10: 90}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestFingerprintIgnoresOrder(t *testing.T) {
	rec := func(id string, gen, epochs int, fitness float64, flops int64) *lineage.Record {
		return &lineage.Record{ID: id, Generation: gen, Epochs: make([]lineage.EpochEntry, epochs), FinalFitness: fitness, FLOPs: flops}
	}
	a := []*lineage.Record{rec("a", 0, 5, 91.5, 100), rec("b", 1, 25, 72.25, 200), rec("c", 1, 7, 99, 300)}
	b := []*lineage.Record{a[2], a[0], a[1]}
	if fingerprint(a) != fingerprint(b) {
		t.Error("fingerprint depends on record order")
	}
	for name, changed := range map[string]*lineage.Record{
		"generation": rec("a", 1, 5, 91.5, 100),
		"epochs":     rec("a", 0, 6, 91.5, 100),
		"fitness":    rec("a", 0, 5, math.Nextafter(91.5, 92), 100),
		"flops":      rec("a", 0, 5, 91.5, 101),
	} {
		if fingerprint([]*lineage.Record{changed, a[1], a[2]}) == fingerprint(a) {
			t.Errorf("fingerprint blind to a change of %s", name)
		}
	}
}

// TestNamesMatchBenchmarkFile holds spec.go and BENCHMARK.json together:
// the same workloads, metrics, units and directions, and the same run
// length.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, -seconds defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark runs %v", declared, workloadNames)
	}
	var fileE2E, fileLayer []metricSpec
	for _, m := range bf.EndToEnd {
		fileE2E = append(fileE2E, metricSpec{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		fileLayer = append(fileLayer, metricSpec{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(fileE2E, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has\n%v\nspec.go has\n%v", fileE2E, endToEnd)
	}
	if !slices.Equal(fileLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has\n%v\nspec.go has\n%v", fileLayer, perLayer)
	}
}

// TestPrintedNames runs the shortest traced and untraced workload through
// the command itself and requires the last line to carry exactly the
// declared metrics and every output check to pass.
func TestPrintedNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs searches for a few seconds")
	}
	last := func(args ...string) resultLine {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("benchmark %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var r resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatalf("last line is not the result: %v\n%s", err, lines[len(lines)-1])
		}
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("benchmark %v: correct %v, attempted %d, failed %d", args, r.Correct, r.Attempted, r.Failed)
		}
		return r
	}
	names := func(specs []metricSpec) []string {
		var out []string
		for _, s := range specs {
			out = append(out, s.Name)
		}
		sort.Strings(out)
		return out
	}
	printed := func(r resultLine) []string {
		var out []string
		for k := range r.Metrics {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	plain := last("-workload", wlSearchInsitu, "-seconds", "0.1", "-seed", "3")
	if got := printed(plain); !slices.Equal(got, names(endToEnd)) {
		t.Errorf("untraced run printed %v, want %v", got, names(endToEnd))
	}
	for k, v := range plain.Metrics {
		if v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", k, v.Value)
		}
	}
	traced := last("-workload", wlSearchInsitu, "-seconds", "0.1", "-seed", "3", "-trace", "1")
	if got := printed(traced); !slices.Equal(got, names(perLayer)) {
		t.Errorf("traced run printed %v, want %v", got, names(perLayer))
	}
}
