package genome

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"a4nn/internal/nn"
	"a4nn/internal/tensor"
)

func TestMicroRandomValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		g, err := NewRandomMicro(rng, 1+rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("random micro genome invalid: %v (%s)", err, g)
		}
	}
	if _, err := NewRandomMicro(rng, 0); err == nil {
		t.Fatal("0 nodes must fail")
	}
}

func TestMicroValidateRejectsBad(t *testing.T) {
	bad := &MicroGenome{Nodes: []MicroNode{{In1: 1, In2: 0}}} // node 0 may only use input 0
	if err := bad.Validate(); err == nil {
		t.Fatal("forward reference must fail")
	}
	bad = &MicroGenome{Nodes: []MicroNode{{Op1: numOps}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown op must fail")
	}
	if err := (&MicroGenome{}).Validate(); err == nil {
		t.Fatal("empty cell must fail")
	}
}

func TestMicroStringParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		g, err := NewRandomMicro(rng, 1+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseMicro(g.String())
		if err != nil {
			t.Fatalf("parse %q: %v", g.String(), err)
		}
		if back.String() != g.String() {
			t.Fatalf("round trip %q -> %q", g.String(), back.String())
		}
	}
	for _, bad := range []string{"", "0.id", "0.id+1.zap", "x.id+0.id", "1.id+0.id"} {
		if _, err := ParseMicro(bad); err == nil {
			t.Fatalf("ParseMicro(%q) must fail", bad)
		}
	}
}

func TestMicroHashAndClone(t *testing.T) {
	a, err := ParseMicro("0.conv3+0.id;1.max3+0.conv5")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseMicro("0.conv3+0.id;1.max3+0.avg3")
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() == b.Hash() {
		t.Fatal("different cells must hash differently")
	}
	c := a.Clone()
	c.Nodes[0].Op1 = OpIdentity
	if a.Nodes[0].Op1 != OpConv3x3 {
		t.Fatal("Clone must copy nodes")
	}
}

func TestMicroMutateCrossover(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := NewRandomMicro(rng, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Mutate(rng, 1.0)
	if err := m.Validate(); err != nil {
		t.Fatalf("full mutation produced invalid genome: %v", err)
	}
	same := g.Mutate(rng, 0)
	if same.String() != g.String() {
		t.Fatal("zero-rate mutation must be identity")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := NewRandomMicro(r, 3)
		b, _ := NewRandomMicro(r, 3)
		c, err := CrossoverMicro(r, a, b)
		if err != nil || c.Validate() != nil {
			return false
		}
		for j := range c.Nodes {
			if c.Nodes[j] != a.Nodes[j] && c.Nodes[j] != b.Nodes[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	short, _ := NewRandomMicro(rng, 2)
	if _, err := CrossoverMicro(rng, g, short); err == nil {
		t.Fatal("size mismatch must fail")
	}
}

func TestMicroOutputNodes(t *testing.T) {
	// Chain: 0→n0→n1; both consumed except n1.
	g, err := ParseMicro("0.conv3+0.id;1.max3+1.id")
	if err != nil {
		t.Fatal(err)
	}
	outs := g.OutputNodes()
	if len(outs) != 1 || outs[0] != 1 {
		t.Fatalf("outs = %v", outs)
	}
	// Two parallel nodes off the input: both are outputs.
	g, err = ParseMicro("0.conv3+0.id;0.max3+0.avg3")
	if err != nil {
		t.Fatal(err)
	}
	outs = g.OutputNodes()
	if len(outs) != 2 {
		t.Fatalf("outs = %v", outs)
	}
}

func TestConcatSplitChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := tensor.Randn(rng, 0, 1, 2, 3, 4, 4)
	b := tensor.Randn(rng, 0, 1, 2, 3, 4, 4)
	cat, err := concatChannels(nil, []*tensor.Tensor{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if cat.Dim(1) != 6 {
		t.Fatalf("concat channels %d", cat.Dim(1))
	}
	// Sample 1, channel 4 of concat == sample 1, channel 1 of b.
	if at(cat, 1, 4, 2, 2) != at(b, 1, 1, 2, 2) {
		t.Fatal("concat layout wrong")
	}
	parts := make([]*tensor.Tensor, 2)
	if err := splitChannels(parts, cat, 3); err != nil {
		t.Fatal(err)
	}
	if !parts[0].Equal(a, 0) || !parts[1].Equal(b, 0) {
		t.Fatal("split does not invert concat")
	}
	if err := splitChannels(make([]*tensor.Tensor, 4), cat, 2); err == nil {
		t.Fatal("bad split must fail")
	}
	if _, err := concatChannels(nil, nil); err == nil {
		t.Fatal("empty concat must fail")
	}
	if _, err := concatChannels(nil, []*tensor.Tensor{a, tensor.New(2, 3, 5, 5)}); err == nil {
		t.Fatal("mismatched spatial dims must fail")
	}
}

// TestMicroCellGradient numerically verifies the cell's backward pass on
// a genome exercising every op kind, shared inputs, and multi-output
// concatenation.
func TestMicroCellGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := ParseMicro("0.conv3+0.max3;1.avg3+0.id;1.conv5+2.id")
	if err != nil {
		t.Fatal(err)
	}
	cell, err := NewMicroCell(rng, g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 0, 1, 2, 2, 5, 5)
	w := make([]float64, 13)
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
	y, err := cell.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	gradOut := tensor.New(y.Shape()...)
	for i := range gradOut.Data() {
		gradOut.Data()[i] = w[i%len(w)]
	}
	dx, err := cell.Backward(gradOut)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-5
	xd := x.Data()
	for _, i := range []int{0, 13, 37, 66, 99} {
		orig := xd[i]
		xd[i] = orig + h
		yp, err := cell.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		lp := loss(yp)
		xd[i] = orig - h
		ym, err := cell.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		lm := loss(ym)
		xd[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(want-dx.Data()[i]) > 2e-3*math.Max(1, math.Abs(want)) {
			t.Fatalf("cell grad [%d]: analytic %v vs numeric %v", i, dx.Data()[i], want)
		}
	}
}

func TestDecodeMicroTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, err := ParseMicro("0.conv3+0.id;1.max3+0.conv3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DecodeConfig{InShape: []int{1, 8, 8}, Widths: []int{4, 8}, NumClasses: 2}
	net, err := DecodeMicro(g, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if net.ID != g.Hash() {
		t.Fatal("network ID must be the cell hash")
	}
	flops, err := net.FLOPs()
	if err != nil || flops <= 0 {
		t.Fatalf("FLOPs %d, %v", flops, err)
	}
	opt, err := nn.NewSGD(0.05, 0.9)
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
	for epoch := 0; epoch < 10; epoch++ {
		if _, _, err := nn.TrainEpoch(net, opt, train); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := nn.EvaluateClassifier(net, []nn.Batch{makeBatch(64)})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 90 {
		t.Fatalf("micro network accuracy %v, want ≥90", acc)
	}
}

func TestDecodeMicroStateRoundTrip(t *testing.T) {
	g, err := ParseMicro("0.conv3+0.avg3;0.max3+1.conv5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DecodeConfig{InShape: []int{1, 8, 8}, Widths: []int{4, 4}, NumClasses: 2}
	rng := rand.New(rand.NewSource(7))
	net, err := DecodeMicro(g, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := nn.NewSGD(0.01, 0)
	x := tensor.Randn(rng, 0, 1, 4, 1, 8, 8)
	if _, _, err := nn.TrainEpoch(net, opt, []nn.Batch{{X: x, Labels: []int{0, 1, 0, 1}}}); err != nil {
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
	fresh, err := DecodeMicro(g, cfg, rand.New(rand.NewSource(888)))
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
		t.Fatal("micro state round trip changed outputs")
	}
}

func TestDecodeMicroValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g, _ := ParseMicro("0.conv3+0.id")
	cfg := DecodeConfig{InShape: []int{1, 8}, Widths: []int{4}, NumClasses: 2}
	if _, err := DecodeMicro(g, cfg, rng); err == nil {
		t.Fatal("bad InShape must fail")
	}
	cfg = DecodeConfig{InShape: []int{1, 8, 8}, Widths: nil, NumClasses: 2}
	if _, err := DecodeMicro(g, cfg, rng); err == nil {
		t.Fatal("no widths must fail")
	}
	cfg = DecodeConfig{InShape: []int{1, 8, 8}, Widths: []int{4}, NumClasses: 1}
	if _, err := DecodeMicro(g, cfg, rng); err == nil {
		t.Fatal("1 class must fail")
	}
	if _, err := NewMicroCell(rng, g, 0, 4); err == nil {
		t.Fatal("0 channels must fail")
	}
	cell, err := NewMicroCell(rng, g, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cell.Backward(tensor.Ones(1, 4, 8, 8)); err == nil {
		t.Fatal("Backward before Forward must fail")
	}
	if _, err := cell.OutShape([]int{3, 8, 8}); err == nil {
		t.Fatal("channel mismatch must fail")
	}
}

// TestMicroOpCosts: conv ops must dominate identity/pooling FLOPs so the
// NAS has a real trade-off.
func TestMicroOpCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cheap, _ := ParseMicro("0.id+0.max3")
	costly, _ := ParseMicro("0.conv5+0.conv3")
	cfg := DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{8}, NumClasses: 2}
	nc, err := DecodeMicro(cheap, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	nx, err := DecodeMicro(costly, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	fc, _ := nc.FLOPs()
	fx, _ := nx.FLOPs()
	if fx <= fc {
		t.Fatalf("conv cell FLOPs %d must exceed pooling cell %d", fx, fc)
	}
}

// TestReleasedDecodedNetworksTrainAlike: a decoded network of either space
// whose blocks or cells hand their buffers back after every epoch trains
// to the bits of its twin that keeps them, over a ragged last batch, and
// refuses a Backward with no Forward after Release.
func TestReleasedDecodedNetworksTrainAlike(t *testing.T) {
	cfg := DecodeConfig{InShape: []int{1, 8, 8}, Widths: []int{4, 4}, NumClasses: 2}
	macro, err := Parse("1011|1101", 3)
	if err != nil {
		t.Fatal(err)
	}
	micro, err := ParseMicro("0.conv3+0.avg3;0.max3+1.conv5;2.id+1.conv3")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	batches := []nn.Batch{
		{X: tensor.Randn(rng, 0, 1, 6, 1, 8, 8), Labels: []int{0, 1, 1, 0, 1, 0}},
		{X: tensor.Randn(rng, 0, 1, 4, 1, 8, 8), Labels: []int{1, 0, 0, 1}},
	}
	for name, decode := range map[string]func() (*nn.Network, error){
		"macro": func() (*nn.Network, error) { return Decode(macro, cfg, rand.New(rand.NewSource(2))) },
		"micro": func() (*nn.Network, error) { return DecodeMicro(micro, cfg, rand.New(rand.NewSource(2))) },
	} {
		t.Run(name, func(t *testing.T) {
			var nets [2]*nn.Network
			var opts [2]*nn.SGD
			for i := range nets {
				if nets[i], err = decode(); err != nil {
					t.Fatal(err)
				}
				opts[i], _ = nn.NewSGD(0.05, 0.9)
			}
			for epoch := 1; epoch <= 3; epoch++ {
				var states [2][]byte
				for i, net := range nets {
					if _, _, err := nn.TrainEpoch(net, opts[i], batches); err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						net.Release()
					}
					if states[i], err = net.SaveTraining(opts[i]); err != nil {
						t.Fatal(err)
					}
				}
				if string(states[0]) != string(states[1]) {
					t.Fatalf("epoch %d: the released network's state differs from its twin's", epoch)
				}
			}
			if err := nets[0].Backward(tensor.New(4, 2)); err == nil {
				t.Fatal("Backward after Release without a training Forward must fail")
			}
		})
	}
}

// at returns the element of an NCHW tensor at (n, c, y, x).
func at(t *tensor.Tensor, n, c, y, x int) float64 {
	s := t.Shape()
	return t.Data()[((n*s[1]+c)*s[2]+y)*s[3]+x]
}
