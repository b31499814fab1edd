package xfel

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestGenerateConformationsDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	confs, err := GenerateConformationSet(rng, DefaultProteinParams())
	if err != nil {
		t.Fatal(err)
	}
	a, b := confs[0], confs[1]
	if len(a.Atoms) != len(b.Atoms) {
		t.Fatalf("atom counts differ: %d vs %d", len(a.Atoms), len(b.Atoms))
	}
	p := DefaultProteinParams()
	// Core atoms identical; at least one domain atom moved.
	for i := 0; i < p.CoreAtoms; i++ {
		if a.Atoms[i] != b.Atoms[i] {
			t.Fatalf("core atom %d differs between conformations", i)
		}
	}
	moved := false
	for i := p.CoreAtoms; i < len(a.Atoms); i++ {
		if a.Atoms[i] != b.Atoms[i] {
			moved = true
		}
		if a.Atoms[i].Weight != b.Atoms[i].Weight {
			t.Fatalf("domain atom %d weight changed by rotation", i)
		}
		// Rigid rotation about a z-axis hinge preserves z.
		if a.Atoms[i].Z != b.Atoms[i].Z {
			t.Fatalf("domain atom %d z changed by hinge rotation", i)
		}
	}
	if !moved {
		t.Fatal("conformations identical")
	}
}

func TestGenerateConformationsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := DefaultProteinParams()
	p.CoreAtoms = 0
	if _, err := GenerateConformationSet(rng, p); err == nil {
		t.Fatal("expected validation error")
	}
	p = DefaultProteinParams()
	p.CoreRadius = 0
	if _, err := GenerateConformationSet(rng, p); err == nil {
		t.Fatal("expected radius error")
	}
}

func TestRandomRotationIsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		r := randomRotation(rng)
		// Rows must be orthonormal.
		for i := 0; i < 3; i++ {
			norm := r[i][0]*r[i][0] + r[i][1]*r[i][1] + r[i][2]*r[i][2]
			if math.Abs(norm-1) > 1e-9 {
				t.Fatalf("row %d norm %v", i, norm)
			}
			for j := i + 1; j < 3; j++ {
				dot := r[i][0]*r[j][0] + r[i][1]*r[j][1] + r[i][2]*r[j][2]
				if math.Abs(dot) > 1e-9 {
					t.Fatalf("rows %d,%d not orthogonal: %v", i, j, dot)
				}
			}
		}
		// Determinant must be +1 (proper rotation).
		det := r[0][0]*(r[1][1]*r[2][2]-r[1][2]*r[2][1]) -
			r[0][1]*(r[1][0]*r[2][2]-r[1][2]*r[2][0]) +
			r[0][2]*(r[1][0]*r[2][1]-r[1][1]*r[2][0])
		if math.Abs(det-1) > 1e-9 {
			t.Fatalf("determinant %v", det)
		}
	}
}

func TestRotationPreservesDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	atoms := []Atom{{1, 2, 3, 1}, {-4, 0, 2, 1}, {0.5, -1, 0, 1}}
	r := randomRotation(rng)
	rot := r.apply(atoms)
	for i := range atoms {
		for j := i + 1; j < len(atoms); j++ {
			d0 := dist(atoms[i], atoms[j])
			d1 := dist(rot[i], rot[j])
			if math.Abs(d0-d1) > 1e-9 {
				t.Fatalf("distance %d-%d changed: %v vs %v", i, j, d0, d1)
			}
		}
	}
}

func dist(a, b Atom) float64 {
	dx, dy, dz := a.X-b.X, a.Y-b.Y, a.Z-b.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

func TestBeamParsingAndNames(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want BeamIntensity
	}{{"low", LowBeam}, {"medium", MediumBeam}, {"high", HighBeam}} {
		got, err := ParseBeam(tc.s)
		if err != nil || got != tc.want {
			t.Fatalf("ParseBeam(%q) = %v, %v", tc.s, got, err)
		}
		if got.String() != tc.s {
			t.Fatalf("String() = %q, want %q", got.String(), tc.s)
		}
	}
	if _, err := ParseBeam("ultra"); err == nil {
		t.Fatal("expected parse error")
	}
	if BeamIntensity(5e14).String() == "" {
		t.Fatal("non-standard beam must still render")
	}
}

func TestPhotonBudgetOrdering(t *testing.T) {
	if !(LowBeam.photonBudget() < MediumBeam.photonBudget() &&
		MediumBeam.photonBudget() < HighBeam.photonBudget()) {
		t.Fatal("photon budget must grow with intensity")
	}
}

func TestPoissonStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, lambda := range []float64{0.5, 3, 20, 100} {
		n := 20000
		sum, sum2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := poisson(rng, lambda)
			if v < 0 {
				t.Fatalf("negative count %v", v)
			}
			sum += v
			sum2 += v * v
		}
		mean := sum / float64(n)
		variance := sum2/float64(n) - mean*mean
		if math.Abs(mean-lambda) > 0.05*lambda+0.2 {
			t.Fatalf("lambda=%v: mean %v", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.15*lambda+0.5 {
			t.Fatalf("lambda=%v: variance %v", lambda, variance)
		}
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Fatal("non-positive lambda must give 0")
	}
}

func TestSimulatorValidation(t *testing.T) {
	p := DefaultSimulatorParams()
	p.Size = 2
	if _, err := NewSimulator(1, p); err == nil {
		t.Fatal("expected size error")
	}
	p = DefaultSimulatorParams()
	p.QMax = 0
	if _, err := NewSimulator(1, p); err == nil {
		t.Fatal("expected qmax error")
	}
}

func TestGeneratePattern(t *testing.T) {
	sim, err := NewSimulator(7, DefaultSimulatorParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	pat, err := sim.Generate(rng, ConfA, HighBeam)
	if err != nil {
		t.Fatal(err)
	}
	if pat.Size != 32 || len(pat.Pixels) != 32*32 {
		t.Fatalf("pattern geometry %d / %d", pat.Size, len(pat.Pixels))
	}
	if pat.Label != ConfA || pat.Beam != HighBeam {
		t.Fatalf("pattern metadata %+v", pat)
	}
	nonzero := 0
	for _, v := range pat.Pixels {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("invalid pixel %v", v)
		}
		if v > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("pattern is all zeros")
	}
	if _, err := sim.Generate(rng, Conformation(9), HighBeam); err == nil {
		t.Fatal("unknown conformation must error")
	}
}

// TestNoiseDecreasesWithBeam: low beam patterns must be sparser (more
// zero-photon pixels) than high beam ones — the paper's noise proxy.
func TestNoiseDecreasesWithBeam(t *testing.T) {
	sim, err := NewSimulator(7, DefaultSimulatorParams())
	if err != nil {
		t.Fatal(err)
	}
	frac := func(beam BeamIntensity) float64 {
		zero := 0
		total := 0
		for i := 0; i < 10; i++ {
			rng := rand.New(rand.NewSource(int64(100 + i)))
			p, err := sim.Generate(rng, ConfA, beam)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range p.Pixels {
				if v == 0 {
					zero++
				}
				total++
			}
		}
		return float64(zero) / float64(total)
	}
	low, high := frac(LowBeam), frac(HighBeam)
	if low <= high {
		t.Fatalf("zero-pixel fraction low=%v must exceed high=%v", low, high)
	}
}

// TestConformationsSeparableAtHighBeam: with identical orientation, the
// two conformations must give distinguishable noiseless fields.
func TestConformationsSeparable(t *testing.T) {
	sim, err := NewSimulator(7, DefaultSimulatorParams())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sim.Conformation(ConfA)
	b, _ := sim.Conformation(ConfB)
	fa := sim.intensityField(a.Atoms)
	fb := sim.intensityField(b.Atoms)
	diff, norm := 0.0, 0.0
	for i := range fa {
		d := fa[i] - fb[i]
		diff += d * d
		norm += fa[i] * fa[i]
	}
	if diff/norm < 1e-3 {
		t.Fatalf("conformations nearly identical: rel diff %v", diff/norm)
	}
}

func TestGenerateBatchDeterministicAndBalanced(t *testing.T) {
	sim, err := NewSimulator(7, DefaultSimulatorParams())
	if err != nil {
		t.Fatal(err)
	}
	b1, err := sim.GenerateBatch(55, 20, MediumBeam)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := sim.GenerateBatch(55, 20, MediumBeam)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Conformation]int{}
	for i := range b1 {
		counts[b1[i].Label]++
		for j := range b1[i].Pixels {
			if b1[i].Pixels[j] != b2[i].Pixels[j] {
				t.Fatal("GenerateBatch must be deterministic for a seed")
			}
		}
	}
	if counts[ConfA] != 10 || counts[ConfB] != 10 {
		t.Fatalf("labels unbalanced: %v", counts)
	}
	if _, err := sim.GenerateBatch(1, 0, MediumBeam); err == nil {
		t.Fatal("count=0 must error")
	}
}

func BenchmarkGeneratePattern(b *testing.B) {
	sim, err := NewSimulator(7, DefaultSimulatorParams())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Generate(rng, ConfA, MediumBeam); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPatternASCII(t *testing.T) {
	p := &Pattern{Size: 2, Pixels: []float64{0, 0.5, 1, 2}}
	out := p.ASCII()
	lines := []byte(out)
	if len(lines) != 6 { // 2 rows × (2 chars + newline)
		t.Fatalf("ascii length %d: %q", len(lines), out)
	}
	if lines[0] != ' ' {
		t.Fatalf("zero intensity must render blank, got %q", lines[0])
	}
	if lines[3] != '@' || lines[4] != '@' {
		t.Fatalf("max/overflow intensity must render '@': %q", out)
	}
}

func TestMultiConformation(t *testing.T) {
	p := DefaultSimulatorParams()
	p.Protein.NumConformations = 4
	sim, err := NewSimulator(7, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Conformation(3); err != nil {
		t.Fatalf("conformation 3 of 4: %v", err)
	}
	if _, err := sim.Conformation(4); err == nil {
		t.Fatal("conformation 4 of 4 must not exist")
	}
	// Labels cycle through all four classes, balanced.
	pats, err := sim.GenerateBatch(1, 40, HighBeam)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Conformation]int{}
	for _, pat := range pats {
		counts[pat.Label]++
	}
	for c := Conformation(0); c < 4; c++ {
		if counts[c] != 10 {
			t.Fatalf("class %v has %d samples: %v", c, counts[c], counts)
		}
	}
	// All four conformations are pairwise distinct in diffraction space.
	for a := Conformation(0); a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			pa, _ := sim.Conformation(a)
			pb, _ := sim.Conformation(b)
			fa := sim.intensityField(pa.Atoms)
			fb := sim.intensityField(pb.Atoms)
			diff, norm := 0.0, 0.0
			for i := range fa {
				d := fa[i] - fb[i]
				diff += d * d
				norm += fa[i] * fa[i]
			}
			if diff/norm < 1e-4 {
				t.Fatalf("conformations %v and %v nearly identical", a, b)
			}
		}
	}
	// String names beyond B.
	if Conformation(3).String() != "conf-3" {
		t.Fatalf("name %q", Conformation(3).String())
	}
	p.Protein.NumConformations = 1
	if _, err := NewSimulator(7, p); err == nil {
		t.Fatal("1 conformation must fail")
	}
}

func TestBeamJSONRoundTrip(t *testing.T) {
	for _, b := range append(AllBeams, BeamIntensity(5e14)) {
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		var back BeamIntensity
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != b {
			t.Fatalf("beam %v round-tripped to %v (wire %s)", b, back, data)
		}
	}
	if string(mustJSON(t, LowBeam)) != `"low"` {
		t.Fatal("standard beams must serialise by name")
	}
	// Numeric wire form also accepted.
	var b BeamIntensity
	if err := json.Unmarshal([]byte("1e15"), &b); err != nil || b != MediumBeam {
		t.Fatalf("numeric decode: %v, %v", b, err)
	}
	if err := json.Unmarshal([]byte(`{"x":1}`), &b); err == nil {
		t.Fatal("object must fail to decode")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
