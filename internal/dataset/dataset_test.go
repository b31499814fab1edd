package dataset

import (
	"math/rand"
	"slices"
	"testing"

	"a4nn/internal/tensor"
	"a4nn/internal/xfel"
)

func genPatterns(t *testing.T, n int) []*xfel.Pattern {
	t.Helper()
	sim, err := xfel.NewSimulator(7, xfel.DefaultSimulatorParams())
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sim.GenerateBatch(1, n, xfel.HighBeam)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestFromPatterns(t *testing.T) {
	ps := genPatterns(t, 10)
	d, err := FromPatterns(ps)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 10 || d.NumClasses != 2 {
		t.Fatalf("len=%d classes=%d", d.Len(), d.NumClasses)
	}
	s := d.SampleShape()
	if len(s) != 3 || s[0] != 1 || s[1] != 32 || s[2] != 32 {
		t.Fatalf("sample shape %v", s)
	}
	// Pixel data must land in the right sample slot.
	if d.X.Data()[3*d.X.Len()/d.X.Dim(0)] != ps[3].Pixels[0] {
		t.Fatal("pixel layout wrong")
	}
	if _, err := FromPatterns(nil); err == nil {
		t.Fatal("empty patterns must error")
	}
}

func TestFromPatternsMixedSizes(t *testing.T) {
	ps := genPatterns(t, 4)
	ps[2] = &xfel.Pattern{Pixels: make([]float64, 16), Size: 4, Label: xfel.ConfA}
	if _, err := FromPatterns(ps); err == nil {
		t.Fatal("mixed sizes must error")
	}
}

func TestNewValidation(t *testing.T) {
	x := tensor.New(4, 2)
	if _, err := New(x, []int{0, 1, 0}, 2); err == nil {
		t.Fatal("label count mismatch must error")
	}
	if _, err := New(x, []int{0, 1, 0, 5}, 2); err == nil {
		t.Fatal("label out of range must error")
	}
	if _, err := New(tensor.New(4), []int{0, 0, 0, 0}, 1); err == nil {
		t.Fatal("rank-1 X must error")
	}
	if _, err := New(x, []int{0, 1, 1, 0}, 2); err != nil {
		t.Fatal(err)
	}
}

func TestSplitStratified(t *testing.T) {
	ps := genPatterns(t, 40)
	d, err := FromPatterns(ps)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := d.Split(0.8, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+test.Len() != 40 {
		t.Fatalf("split sizes %d + %d != 40", train.Len(), test.Len())
	}
	if train.Len() != 32 || test.Len() != 8 {
		t.Fatalf("80/20 split gave %d/%d", train.Len(), test.Len())
	}
	tc := train.ClassCounts()
	if tc[0] != 16 || tc[1] != 16 {
		t.Fatalf("train not stratified: %v", tc)
	}
	if _, _, err := d.Split(0, nil); err == nil {
		t.Fatal("frac=0 must error")
	}
	if _, _, err := d.Split(1, nil); err == nil {
		t.Fatal("frac=1 must error")
	}
}

func TestSplitTinyClassesKeepBothSides(t *testing.T) {
	x := tensor.New(4, 1, 2, 2)
	d, err := New(x, []int{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := d.Split(0.9, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 2 || test.Len() != 2 {
		t.Fatalf("tiny split %d/%d, want 2/2", train.Len(), test.Len())
	}
}

func TestSubsetErrors(t *testing.T) {
	ps := genPatterns(t, 4)
	d, _ := FromPatterns(ps)
	if _, err := d.Subset([]int{0, 9}); err == nil {
		t.Fatal("out-of-range subset must error")
	}
	sub, err := d.Subset([]int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Labels[0] != d.Labels[3] || sub.Labels[1] != d.Labels[1] {
		t.Fatal("subset label order wrong")
	}
}

func TestBatches(t *testing.T) {
	ps := genPatterns(t, 10)
	d, _ := FromPatterns(ps)
	batches, err := d.Batches(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3", len(batches))
	}
	if batches[0].X.Dim(0) != 4 || batches[2].X.Dim(0) != 2 {
		t.Fatalf("batch sizes %d, %d", batches[0].X.Dim(0), batches[2].X.Dim(0))
	}
	total := 0
	for _, b := range batches {
		total += len(b.Labels)
	}
	if total != 10 {
		t.Fatalf("batches cover %d samples", total)
	}
	// Unshuffled batches preserve order.
	if batches[0].Labels[0] != d.Labels[0] {
		t.Fatal("unshuffled batch must preserve order")
	}
	// Shuffled batches cover the same multiset of labels.
	sb, err := d.Batches(4, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	count := map[int]int{}
	for _, b := range sb {
		for _, l := range b.Labels {
			count[l]++
		}
	}
	if count[0] != 5 || count[1] != 5 {
		t.Fatalf("shuffled label multiset wrong: %v", count)
	}
	if _, err := d.Batches(0, nil); err == nil {
		t.Fatal("batchSize=0 must error")
	}
}

// TestShuffleIntoMatchesBatches: refilling an epoch's batches in place
// draws the same shuffle and writes the same samples as cutting fresh
// batches, epoch after epoch, into the first epoch's tensors.
func TestShuffleIntoMatchesBatches(t *testing.T) {
	ps := genPatterns(t, 10)
	d, _ := FromPatterns(ps)
	fresh, reused := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	held, err := d.Batches(4, reused)
	if err != nil {
		t.Fatal(err)
	}
	first := held[0].X
	for epoch := 1; epoch <= 3; epoch++ {
		want, err := d.Batches(4, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if epoch > 1 {
			d.ShuffleInto(held, reused)
		}
		for i, b := range held {
			if !slices.Equal(b.Labels, want[i].Labels) || !slices.Equal(b.X.Data(), want[i].X.Data()) {
				t.Fatalf("epoch %d batch %d differs from a fresh Batches", epoch, i)
			}
		}
	}
	if held[0].X != first {
		t.Fatal("ShuffleInto replaced the caller's tensor")
	}
}

func TestClassCounts(t *testing.T) {
	ps := genPatterns(t, 12)
	d, _ := FromPatterns(ps)
	c := d.ClassCounts()
	if c[0] != 6 || c[1] != 6 {
		t.Fatalf("counts %v", c)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ps := genPatterns(t, 8)
	d, err := FromPatterns(ps)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ds.gob"
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() || back.NumClasses != d.NumClasses {
		t.Fatalf("round trip lost metadata: %d/%d", back.Len(), back.NumClasses)
	}
	if !back.X.Equal(d.X, 0) {
		t.Fatal("round trip changed pixel data")
	}
	for i := range d.Labels {
		if back.Labels[i] != d.Labels[i] {
			t.Fatal("round trip changed labels")
		}
	}
	if _, err := Load(t.TempDir() + "/missing.gob"); err == nil {
		t.Fatal("missing file must fail")
	}
	if err := d.Save("/nonexistent-dir/x.gob"); err == nil {
		t.Fatal("unwritable path must fail")
	}
}
