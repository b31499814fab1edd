package genome

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"a4nn/internal/nn"
	"a4nn/internal/tensor"
)

func TestBitsPerPhase(t *testing.T) {
	if BitsPerPhase(4) != 7 {
		t.Fatalf("BitsPerPhase(4) = %d, want 7 (6 connections + skip)", BitsPerPhase(4))
	}
	if BitsPerPhase(1) != 1 {
		t.Fatalf("BitsPerPhase(1) = %d", BitsPerPhase(1))
	}
}

func TestNewRandomValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := NewRandom(rng, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Phases) != 3 || len(g.Phases[0]) != 7 {
		t.Fatalf("shape %d phases × %d bits", len(g.Phases), len(g.Phases[0]))
	}
	if _, err := NewRandom(rng, 0, 4); err == nil {
		t.Fatal("expected error for zero phases")
	}
}

func TestValidateRejectsBadGenomes(t *testing.T) {
	g := &Genome{NodesPerPhase: 4, Phases: [][]byte{{1, 0, 1}}}
	if err := g.Validate(); err == nil {
		t.Fatal("wrong bit count must fail")
	}
	g = &Genome{NodesPerPhase: 4, Phases: [][]byte{{1, 0, 1, 0, 1, 0, 2}}}
	if err := g.Validate(); err == nil {
		t.Fatal("non-binary bit must fail")
	}
	g = &Genome{NodesPerPhase: 0, Phases: nil}
	if err := g.Validate(); err == nil {
		t.Fatal("empty genome must fail")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		g, err := NewRandom(rng, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(g.String(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(back) {
			t.Fatalf("round trip failed for %s", g)
		}
	}
	if _, err := Parse("10x1011", 4); err == nil {
		t.Fatal("invalid character must fail")
	}
	if _, err := Parse("101", 4); err == nil {
		t.Fatal("wrong length must fail")
	}
}

func TestHashDistinguishesGenomes(t *testing.T) {
	a, _ := Parse("0000000|0000000|0000000", 4)
	b, _ := Parse("0000001|0000000|0000000", 4)
	if a.Hash() == b.Hash() {
		t.Fatal("different genomes must hash differently")
	}
	if a.Hash() != a.Clone().Hash() {
		t.Fatal("clone must hash identically")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, _ := Parse("1010101|0101010|1111111", 4)
	c := g.Clone()
	c.Phases[0][0] = 0
	if g.Phases[0][0] != 1 {
		t.Fatal("Clone must copy bits")
	}
}

func TestMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, _ := Parse("0000000|0000000|0000000", 4)
	m := g.Mutate(rng, 1.0) // flip everything
	for p := range m.Phases {
		for i := range m.Phases[p] {
			if m.Phases[p][i] != 1 {
				t.Fatal("perBit=1 must flip every bit")
			}
		}
	}
	if g.Phases[0][0] != 0 {
		t.Fatal("Mutate must not modify the receiver")
	}
	same := g.Mutate(rng, 0)
	if !same.Equal(g) {
		t.Fatal("perBit=0 must be identity")
	}
}

func TestCrossoverProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := NewRandom(r, 3, 4)
		b, _ := NewRandom(r, 3, 4)
		c, err := Crossover(rng, a, b)
		if err != nil {
			return false
		}
		// Every child bit comes from one of the parents.
		for p := range c.Phases {
			for i := range c.Phases[p] {
				bit := c.Phases[p][i]
				if bit != a.Phases[p][i] && bit != b.Phases[p][i] {
					return false
				}
			}
		}
		return c.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	a, _ := NewRandom(rng, 3, 4)
	b, _ := NewRandom(rng, 2, 4)
	if _, err := Crossover(rng, a, b); err == nil {
		t.Fatal("incompatible crossover must fail")
	}
}

func TestTopology(t *testing.T) {
	// 4 nodes, bits: [b01, b02, b12, b03, b13, b23, skip]
	// Connections: 0→1, 1→2. Node 3 isolated. Skip on.
	g, err := Parse("1010001", 4)
	if err != nil {
		t.Fatal(err)
	}
	topo := g.topology(0)
	if !topo.active[0] || !topo.active[1] || !topo.active[2] || topo.active[3] {
		t.Fatalf("active = %v", topo.active)
	}
	if len(topo.preds[1]) != 1 || topo.preds[1][0] != 0 {
		t.Fatalf("preds[1] = %v", topo.preds[1])
	}
	if len(topo.preds[2]) != 1 || topo.preds[2][0] != 1 {
		t.Fatalf("preds[2] = %v", topo.preds[2])
	}
	if len(topo.outs) != 1 || topo.outs[0] != 2 {
		t.Fatalf("outs = %v", topo.outs)
	}
	if !topo.skip {
		t.Fatal("skip bit not read")
	}
	if g.ActiveNodes(0) != 3 {
		t.Fatalf("ActiveNodes = %d", g.ActiveNodes(0))
	}
	if !g.SkipBit(0) {
		t.Fatal("SkipBit wrong")
	}
}

func TestDecodeEmptyPhaseFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := Parse("0000000|0000000|0000000", 4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := Decode(g, DefaultDecodeConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.OutShape()
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Fatalf("out shape %v", out)
	}
	x := tensor.Randn(rng, 0, 1, 2, 1, 32, 32)
	y, err := net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if y.Dim(0) != 2 || y.Dim(1) != 2 {
		t.Fatalf("forward shape %v", y.Shape())
	}
}

func TestDecodeDenseGenome(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, err := Parse("1111111|1111111|1111111", 4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := Decode(g, DefaultDecodeConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 0, 1, 2, 1, 32, 32)
	if _, err := net.Forward(x, false); err != nil {
		t.Fatal(err)
	}
	// Denser genomes must cost more FLOPs than the empty genome.
	empty, _ := Parse("0000000|0000000|0000000", 4)
	netEmpty, err := Decode(empty, DefaultDecodeConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	fDense, _ := net.FLOPs()
	fEmpty, _ := netEmpty.FLOPs()
	if fDense <= fEmpty {
		t.Fatalf("dense FLOPs %d must exceed empty %d", fDense, fEmpty)
	}
}

func TestDecodeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, _ := Parse("1010001|0000000|0000000", 4)
	cfg := DefaultDecodeConfig()
	cfg.Widths = []int{8}
	if _, err := Decode(g, cfg, rng); err == nil {
		t.Fatal("width/phase mismatch must fail")
	}
	cfg = DefaultDecodeConfig()
	cfg.InShape = []int{1, 32}
	if _, err := Decode(g, cfg, rng); err == nil {
		t.Fatal("bad InShape must fail")
	}
	cfg = DefaultDecodeConfig()
	cfg.NumClasses = 1
	if _, err := Decode(g, cfg, rng); err == nil {
		t.Fatal("single class must fail")
	}
	cfg = DefaultDecodeConfig()
	cfg.InShape = []int{1, 2, 2}
	if _, err := Decode(g, cfg, rng); err == nil {
		t.Fatal("too-small input must fail")
	}
}

// TestPhaseBlockGradient numerically checks the DAG backward pass.
func TestPhaseBlockGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Diamond topology with skip: 0→1, 0→2, 1→3, 2→3.
	// bits [b01, b02, b12, b03, b13, b23, skip] = 1 1 0 0 1 1 1
	g, err := Parse("1100111", 4)
	if err != nil {
		t.Fatal(err)
	}
	block, err := NewPhaseBlock(rng, g, 0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 0, 1, 2, 2, 5, 5)

	w := make([]float64, 11)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	loss := func(y *tensor.Tensor) float64 {
		s := 0.0
		for i, v := range y.Data() {
			s += v * w[i%len(w)]
		}
		return s
	}
	y, err := block.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	gradOut := tensor.New(y.Shape()...)
	for i := range gradOut.Data() {
		gradOut.Data()[i] = w[i%len(w)]
	}
	dx, err := block.Backward(gradOut)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-5
	xd := x.Data()
	for _, i := range []int{0, 17, 49, 73, 99} {
		orig := xd[i]
		xd[i] = orig + h
		yp, err := block.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		lp := loss(yp)
		xd[i] = orig - h
		ym, err := block.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		lm := loss(ym)
		xd[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(want-dx.Data()[i]) > 1e-3*math.Max(1, math.Abs(want)) {
			t.Fatalf("phase grad [%d]: analytic %v vs numeric %v", i, dx.Data()[i], want)
		}
	}
}

// TestDecodedNetworkTrains: a decoded genome must learn the toy task the
// same way a hand-built CNN does (exercises the full DAG training path).
func TestDecodedNetworkTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, err := Parse("1010001|1000000|0000000", 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DecodeConfig{InShape: []int{1, 8, 8}, Widths: []int{4, 8, 8}, NumClasses: 2}
	net, err := Decode(g, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := nn.NewSGD(0.05, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	makeBatch := func(n int) nn.Batch {
		x := tensor.New(n, 1, 8, 8)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			cls := rng.Intn(2)
			labels[i] = cls
			for y := 0; y < 8; y++ {
				for xx := 0; xx < 8; xx++ {
					v := rng.NormFloat64() * 0.1
					if (cls == 0 && y < 4) || (cls == 1 && y >= 4) {
						v += 1
					}
					x.Set(v, i, 0, y, xx)
				}
			}
		}
		return nn.Batch{X: x, Labels: labels}
	}
	var train []nn.Batch
	for b := 0; b < 6; b++ {
		train = append(train, makeBatch(16))
	}
	test := []nn.Batch{makeBatch(64)}
	for epoch := 0; epoch < 12; epoch++ {
		if _, err := nn.TrainEpoch(net, opt, train); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := nn.EvaluateClassifier(net, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 90 {
		t.Fatalf("decoded network accuracy %v, want ≥90", acc)
	}
}

// TestDecodeDeterministic: same genome + same seed → identical weights.
func TestDecodeDeterministic(t *testing.T) {
	g, _ := Parse("1100111|0010010|1000001", 4)
	n1, err := Decode(g, DefaultDecodeConfig(), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Decode(g, DefaultDecodeConfig(), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := n1.Params(), n2.Params()
	if len(p1) != len(p2) {
		t.Fatal("param counts differ")
	}
	for i := range p1 {
		if !p1[i].Value.Equal(p2[i].Value, 0) {
			t.Fatalf("param %d differs", i)
		}
	}
	if n1.ID != g.Hash() {
		t.Fatal("network ID must be the genome hash")
	}
}

// phaseTopologies are the block shapes with distinct buffer use: the diamond
// with a residual skip (summed node input, summed gradient, summed output),
// a chain (every tensor handed straight on), two sinks, and the empty DAG.
var phaseTopologies = []string{"1100111", "1010010", "1100000", "0000000"}

func requireSameBits(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
	}
	for i, w := range want.Data() {
		if math.Float64bits(got.Data()[i]) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", label, i, got.Data()[i], w)
		}
	}
}

// TestPhaseBlockEvalBetweenForwardAndBackward: the block's reused buffers
// hold nothing Backward needs, so an evaluation Forward — of another batch
// size, overwriting every forward buffer — between a training Forward and
// its Backward leaves every gradient bit-identical.
func TestPhaseBlockEvalBetweenForwardAndBackward(t *testing.T) {
	for _, bits := range phaseTopologies {
		g, err := Parse(bits, 4)
		if err != nil {
			t.Fatal(err)
		}
		data := rand.New(rand.NewSource(31))
		x := tensor.Randn(data, 0, 1, 3, 2, 6, 6)
		other := tensor.Randn(data, 0, 1, 5, 2, 6, 6)
		grad := tensor.Randn(data, 0, 1, 3, 4, 6, 6)
		run := func(interleave bool) (*PhaseBlock, *tensor.Tensor) {
			block, err := NewPhaseBlock(rand.New(rand.NewSource(32)), g, 0, 2, 4)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := block.Forward(x, true); err != nil {
				t.Fatal(err)
			}
			if interleave {
				if _, err := block.Forward(other, false); err != nil {
					t.Fatal(err)
				}
			}
			dx, err := block.Backward(grad)
			if err != nil {
				t.Fatal(err)
			}
			return block, dx
		}
		plain, wantDx := run(false)
		mixed, gotDx := run(true)
		requireSameBits(t, bits+" dx", gotDx, wantDx)
		for i, p := range plain.Params() {
			requireSameBits(t, bits+" "+p.Name, mixed.Params()[i].Grad, p.Grad)
		}
	}
}

// TestPhaseBlockReusesBuffers: in steady state a training step hands back
// the same output and input-gradient storage as the step before and
// allocates far less than one activation tensor.
func TestPhaseBlockReusesBuffers(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	for _, bits := range phaseTopologies {
		g, err := Parse(bits, 4)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(33))
		block, err := NewPhaseBlock(rng, g, 0, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.Randn(rng, 0, 1, 8, 2, 16, 16)
		grad := tensor.Randn(rng, 0, 1, 8, 8, 16, 16)
		step := func() (y, dx *float64) {
			out, err := block.Forward(x, true)
			if err != nil {
				t.Fatal(err)
			}
			din, err := block.Backward(grad)
			if err != nil {
				t.Fatal(err)
			}
			return &out.Data()[0], &din.Data()[0]
		}
		step()
		y1, dx1 := step()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		y2, dx2 := step()
		runtime.ReadMemStats(&after)
		if y1 != y2 || dx1 != dx2 {
			t.Fatalf("%s: a steady-state step moved its output or input-gradient buffer", bits)
		}
		if got, tensorBytes := after.TotalAlloc-before.TotalAlloc, uint64(8*grad.Len()); got > tensorBytes/4 {
			t.Fatalf("%s: a steady-state step allocated %d B; one activation tensor is %d B", bits, got, tensorBytes)
		}
	}
}

func TestPhaseBlockErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g, _ := Parse("1100111", 4)
	if _, err := NewPhaseBlock(rng, g, 5, 1, 4); err == nil {
		t.Fatal("phase out of range must fail")
	}
	if _, err := NewPhaseBlock(rng, g, 0, 0, 4); err == nil {
		t.Fatal("zero channels must fail")
	}
	b, err := NewPhaseBlock(rng, g, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.OutShape([]int{3, 8, 8}); err == nil {
		t.Fatal("wrong channel OutShape must fail")
	}
	if _, err := b.Backward(tensor.Ones(1, 4, 8, 8)); err == nil {
		t.Fatal("Backward before Forward must fail")
	}
}

// TestDecodedStateRoundTrip: a trained decoded network's SaveState must
// capture the batch-norm statistics nested inside PhaseBlocks, so a fresh
// decode + LoadState reproduces evaluation outputs exactly.
func TestDecodedStateRoundTrip(t *testing.T) {
	g, err := Parse("1100111|1010001|1000001", 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DecodeConfig{InShape: []int{1, 8, 8}, Widths: []int{4, 8, 8}, NumClasses: 2}
	rng := rand.New(rand.NewSource(21))
	net, err := Decode(g, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	// One training step so running stats are non-trivial.
	opt, err := nn.NewSGD(0.01, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 0, 1, 4, 1, 8, 8)
	if _, err := nn.TrainEpoch(net, opt, []nn.Batch{{X: x, Labels: []int{0, 1, 0, 1}}}); err != nil {
		t.Fatal(err)
	}
	want, err := net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	state, err := net.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Decode(g, cfg, rand.New(rand.NewSource(777)))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadState(state); err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-12) {
		t.Fatal("decoded-network state round trip changed eval outputs")
	}
}
