package simtrain

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"a4nn/internal/core"
	"a4nn/internal/dataset"
	"a4nn/internal/genome"
	"a4nn/internal/predict"
	"a4nn/internal/sched"
	"a4nn/internal/xfel"
)

func TestProfilesValidate(t *testing.T) {
	for _, beam := range xfel.AllBeams {
		if err := ProfileFor(beam).Validate(); err != nil {
			t.Fatalf("%s profile: %v", beam, err)
		}
	}
}

func TestProfileValidationRejectsBad(t *testing.T) {
	base := ProfileFor(xfel.MediumBeam)
	cases := []struct {
		name string
		mut  func(*BeamProfile)
	}{
		{"asymptote", func(p *BeamProfile) { p.AsymptoteMax = p.AsymptoteMin - 1 }},
		{"start", func(p *BeamProfile) { p.StartMax = p.AsymptoteMin + 1 }},
		{"rate", func(p *BeamProfile) { p.RateMin = 0 }},
		{"noise", func(p *BeamProfile) { p.Noise = -1 }},
		{"failure", func(p *BeamProfile) { p.FailureRate = 2 }},
		{"hard rise", func(p *BeamProfile) { p.HardRiseMin = 0 }},
		{"hard target", func(p *BeamProfile) { p.HardTargetMax = 1 }},
	}
	for _, tc := range cases {
		p := base
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(BeamProfile{}, genome.DefaultDecodeConfig(), 0); err == nil {
		t.Fatal("empty profile must fail")
	}
	if _, err := New(ProfileFor(xfel.LowBeam), genome.DefaultDecodeConfig(), -1); err == nil {
		t.Fatal("negative samples must fail")
	}
	if _, err := New(ProfileFor(xfel.LowBeam), genome.DecodeConfig{}, 0); err == nil {
		t.Fatal("a decode configuration no genome can be priced under must fail")
	}
	tr, err := New(ProfileFor(xfel.LowBeam), genome.DefaultDecodeConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TrainSamples() != PaperTrainSamples {
		t.Fatalf("default samples %d", tr.TrainSamples())
	}
}

func TestNewModelDeterministic(t *testing.T) {
	tr, err := ForBeam(xfel.MediumBeam)
	if err != nil {
		t.Fatal(err)
	}
	g, err := genome.NewRandom(rand.New(rand.NewSource(1)), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := tr.NewModel(g, 42)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := tr.NewModel(g, 42)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 10; e++ {
		a, err := m1.TrainEpoch()
		if err != nil {
			t.Fatal(err)
		}
		b, err := m2.TrainEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if a.ValAccuracy != b.ValAccuracy {
			t.Fatalf("epoch %d diverged: %v vs %v", e+1, a.ValAccuracy, b.ValAccuracy)
		}
	}
	// Different seed → different curve.
	m3, err := tr.NewModel(g, 43)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	m4, _ := tr.NewModel(g, 42)
	for e := 0; e < 10; e++ {
		a, _ := m3.TrainEpoch()
		b, _ := m4.TrainEpoch()
		if a.ValAccuracy != b.ValAccuracy {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds must yield different curves")
	}
}

func TestModelMetadata(t *testing.T) {
	tr, err := ForBeam(xfel.HighBeam)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := genome.Parse("1111111|1111111|1111111", 4)
	m, err := tr.NewModel(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.FLOPs() <= 0 || m.NumParams() <= 0 || m.Describe() == "" {
		t.Fatalf("metadata missing: flops=%d params=%d", m.FLOPs(), m.NumParams())
	}
	// The model never builds its network; it must still report the
	// network's numbers.
	net, err := genome.Decode(g, genome.PaperDecodeConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if flops, err := net.FLOPs(); err != nil || m.FLOPs() != flops || m.NumParams() != net.NumParams() || m.Describe() != net.Describe() {
		t.Fatalf("model reports flops=%d params=%d\n%s\ndecoded network has flops=%d (%v) params=%d\n%s",
			m.FLOPs(), m.NumParams(), m.Describe(), flops, err, net.NumParams(), net.Describe())
	}
	// Paper-scale FLOPs land in the hundreds of MFLOPs.
	mflops := float64(m.FLOPs()) / 1e6
	if mflops < 50 || mflops > 5000 {
		t.Fatalf("dense genome MFLOPs %v outside paper-scale range", mflops)
	}
	state, err := m.SaveState()
	if err != nil || len(state) == 0 {
		t.Fatalf("SaveState: %v", err)
	}
}

func TestCurvesStayInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, beam := range xfel.AllBeams {
		tr, err := ForBeam(beam)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			g, _ := genome.NewRandom(rng, 3, 4)
			m, err := tr.NewModel(g, int64(i))
			if err != nil {
				t.Fatal(err)
			}
			prev := -1.0
			for e := 0; e < 25; e++ {
				met, err := m.TrainEpoch()
				if err != nil {
					t.Fatal(err)
				}
				if met.ValAccuracy < 0 || met.ValAccuracy > 100 {
					t.Fatalf("%s model %d epoch %d: accuracy %v", beam, i, e+1, met.ValAccuracy)
				}
				if met.TrainAccuracy < 0 || met.TrainAccuracy > 100 {
					t.Fatalf("train accuracy %v out of bounds", met.TrainAccuracy)
				}
				if met.TrainLoss <= 0 {
					t.Fatalf("loss %v not positive", met.TrainLoss)
				}
				prev = met.ValAccuracy
			}
			_ = prev
		}
	}
}

// trainCohort runs n surrogate models under the prediction engine and
// returns (terminated fraction, mean e_t, epoch-saved fraction).
func trainCohort(t *testing.T, beam xfel.BeamIntensity, n int) (termFrac, meanEt, savedFrac float64) {
	t.Helper()
	eng, err := predict.NewEngine(predict.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ForBeam(beam)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	term, sumEt, totalEpochs := 0, 0, 0
	for i := 0; i < n; i++ {
		g, _ := genome.NewRandom(rng, 3, 4)
		m, err := tr.NewModel(g, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		orch := &core.Orchestrator{Engine: eng, MaxEpochs: 25}
		out, err := orch.TrainModel(context.Background(), m, sched.Device{Throughput: 1e12}, 100, nil)
		if err != nil {
			t.Fatal(err)
		}
		totalEpochs += out.EpochsTrained
		if out.Terminated {
			term++
			sumEt += out.EpochsTrained
		}
	}
	termFrac = float64(term) / float64(n)
	if term > 0 {
		meanEt = float64(sumEt) / float64(term)
	}
	savedFrac = 1 - float64(totalEpochs)/float64(n*25)
	return termFrac, meanEt, savedFrac
}

// TestCalibrationShapes verifies the Figure 7/8 shape constraints the
// profiles were calibrated to (with generous tolerances: these are
// stochastic cohorts of 150 models).
func TestCalibrationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("cohort calibration in -short mode")
	}
	lowTerm, lowEt, lowSaved := trainCohort(t, xfel.LowBeam, 150)
	medTerm, medEt, medSaved := trainCohort(t, xfel.MediumBeam, 150)
	highTerm, highEt, highSaved := trainCohort(t, xfel.HighBeam, 150)

	// Figure 7: medium saves the most epochs, low the least.
	if !(medSaved > highSaved && highSaved > lowSaved) {
		t.Errorf("epoch savings ordering violated: low=%.2f med=%.2f high=%.2f", lowSaved, medSaved, highSaved)
	}
	if lowSaved < 0.05 || lowSaved > 0.35 {
		t.Errorf("low savings %.2f outside band", lowSaved)
	}
	if medSaved < 0.25 || medSaved > 0.50 {
		t.Errorf("medium savings %.2f outside band", medSaved)
	}
	// Figure 8: low converges latest; medium terminated fraction highest;
	// high terminates earliest.
	if !(lowEt > medEt && lowEt > highEt) {
		t.Errorf("e_t ordering violated: low=%.1f med=%.1f high=%.1f", lowEt, medEt, highEt)
	}
	if medTerm < 0.6 {
		t.Errorf("medium terminated fraction %.2f too small", medTerm)
	}
	if lowTerm < 0.4 || highTerm < 0.4 {
		t.Errorf("terminated fractions low=%.2f high=%.2f too small", lowTerm, highTerm)
	}
	if medEt > 14 {
		t.Errorf("medium mean e_t %.1f too late", medEt)
	}
}

func TestNewModelRejectsBadGenome(t *testing.T) {
	tr, err := ForBeam(xfel.LowBeam)
	if err != nil {
		t.Fatal(err)
	}
	bad := &genome.Genome{NodesPerPhase: 4, Phases: [][]byte{{9}}}
	if _, err := tr.NewModel(bad, 1); err == nil {
		t.Fatal("invalid genome must fail")
	}
}

// TestSurrogateMatchesRealTrainerQualitatively backs DESIGN.md's claim
// that the surrogate is calibrated against the real trainer: a genuinely
// trained network's learning curve must look like the surrogate's
// curves — rising from near-chance toward a plateau, within fitness
// bounds — and drive the prediction engine through the same code path.
func TestSurrogateMatchesRealTrainerQualitatively(t *testing.T) {
	if testing.Short() {
		t.Skip("real training in -short mode")
	}
	params := xfel.DefaultSimulatorParams()
	params.Size = 16
	sim, err := xfel.NewSimulator(3, params)
	if err != nil {
		t.Fatal(err)
	}
	pats, err := sim.GenerateBatch(1, 160, xfel.HighBeam)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.FromPatterns(pats)
	if err != nil {
		t.Fatal(err)
	}
	train, val, err := ds.Split(0.8, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	real, err := core.NewRealTrainer(train, val, core.RealTrainerConfig{
		Decode: genome.DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{4, 8, 8}, NumClasses: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := genome.Parse("1010001|1100111|1000000", 4)
	if err != nil {
		t.Fatal(err)
	}
	model, err := real.NewModel(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	var curve []float64
	for e := 0; e < 12; e++ {
		m, err := model.TrainEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if m.ValAccuracy < 0 || m.ValAccuracy > 100 {
			t.Fatalf("real accuracy %v out of bounds", m.ValAccuracy)
		}
		curve = append(curve, m.ValAccuracy)
	}
	// Rising, noisy curve that clearly beats chance — the same
	// qualitative family (trend + wander) the surrogate draws from.
	tail := (curve[9] + curve[10] + curve[11]) / 3
	best := 0.0
	for _, v := range curve {
		if v > best {
			best = v
		}
	}
	if tail < curve[0]+5 {
		t.Fatalf("real curve not rising: %v", curve)
	}
	if best < 70 {
		t.Fatalf("real curve best %v too low: %v", best, curve)
	}
	// The same engine consumes both: feed the real curve to the engine
	// with e_pred at the end of this budget.
	cfg := predict.DefaultConfig()
	cfg.EPred = 12
	eng, err := predict.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := predict.NewTracker(eng)
	for _, v := range curve {
		if tr.Observe(v) {
			break
		}
	}
	if f, ok := tr.FinalFitness(); !ok || f < 0 || f > 100 {
		t.Fatalf("engine on real curve produced %v, %v", f, ok)
	}
}

// TestSurrogateGoldenBits is TestRealTrainerGoldenBits for the surrogate
// path: one paper-scale search per beam (Tables 1 and 2: 100 models, NAS
// seeds 1–3, one device) must evaluate the same models to the same bits as
// it did before the engine and NewModel were made cheap. They were
// re-recorded when the paper family's fit took its Jacobian in closed
// form; TestClosedFormKeepsSearchDecisions pairs that change with the
// central differences it replaced. search is the
// benchmark's fingerprint, FNV-64a over the sorted lines
// `id|generation|epochs|fitness bits|FLOPs`; arch extends each line with
// the parameter count and the architecture text, the other two values a
// lineage record takes from NewModel. The fits run the prediction engine,
// so the values hold on amd64 only (other ports fuse multiply-adds).
func TestSurrogateGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits recorded on amd64")
	}
	want := []struct {
		beam         xfel.BeamIntensity
		search, arch uint64
	}{
		{xfel.LowBeam, 0x082ea540ff65e754, 0x3b1ce3ac7631cf9f},
		{xfel.MediumBeam, 0x096f388124e9f9db, 0xed947dfc06a70159},
		{xfel.HighBeam, 0xb676436f9d4a5670, 0x4c46d2fc21a26cc9},
	}
	for i, w := range want {
		tr, err := ForBeam(w.beam)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(tr)
		cfg.NAS.Seed = int64(1 + i)
		cfg.Beam = w.beam.String()
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Models) != 100 {
			t.Fatalf("%s: %d models, want 100", w.beam, len(res.Models))
		}
		search := make([]string, len(res.Models))
		arch := make([]string, len(res.Models))
		for j, m := range res.Models {
			r := m.Record
			search[j] = fmt.Sprintf("%s|%d|%d|%016x|%d", r.ID, r.Generation, r.EpochsTrained(),
				math.Float64bits(r.FinalFitness), r.FLOPs)
			arch[j] = fmt.Sprintf("%s|%d|%s", search[j], r.NumParams, r.Architecture)
		}
		if got := hashSorted(search); got != w.search {
			t.Errorf("%s: search fingerprint %#x, want %#x", w.beam, got, w.search)
		}
		if got := hashSorted(arch); got != w.arch {
			t.Errorf("%s: architecture fingerprint %#x, want %#x", w.beam, got, w.arch)
		}
	}
}

// hashSorted is FNV-64a over the sorted lines, each newline-terminated.
func hashSorted(lines []string) uint64 {
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// BenchmarkNewModel prices and seeds one surrogate model at paper scale,
// the per-model set-up of every surrogate search.
func BenchmarkNewModel(b *testing.B) {
	tr, err := ForBeam(xfel.MediumBeam)
	if err != nil {
		b.Fatal(err)
	}
	g, err := genome.Parse("1011011|0110101|1110110", 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.NewModel(g, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzStateJSON holds SaveState to json.Marshal's bytes for the
// map[string]float64 it replaced: equal, or both refuse the state.
func FuzzStateJSON(f *testing.F) {
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e-7, 1e21, 61.25, 0.35}
	for i, x := range floats {
		f.Add(x, floats[(i+1)%len(floats)], floats[(i+2)%len(floats)], floats[(i+3)%len(floats)], i*7)
	}
	f.Add(88.5, 0.25, 3.0, 71.125, 25)
	f.Fuzz(func(t *testing.T, a, beta, c, lastVal float64, epoch int) {
		m := &model{a: a, beta: beta, c: c, epoch: epoch, lastVal: lastVal}
		want, werr := json.Marshal(map[string]float64{
			"a": a, "beta": beta, "c": c, "epoch": float64(epoch), "last_val": lastVal,
		})
		got, gerr := m.SaveState()
		switch {
		case werr != nil || gerr != nil:
			if werr == nil || gerr == nil || got != nil {
				t.Fatalf("encoding/json: %v; SaveState: %v, wrote %q", werr, gerr, got)
			}
		case string(got) != string(want):
			t.Fatalf("SaveState wrote %s, encoding/json %s", got, want)
		}
	})
}
