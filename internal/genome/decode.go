package genome

import (
	"fmt"
	"math/rand"

	"a4nn/internal/nn"
	"a4nn/internal/tensor"
)

// convUnit is the NSGA-Net node operation: 3×3 (or 1×1 for the phase
// input projection) convolution → batch norm → ReLU.
type convUnit struct {
	conv *nn.Conv2D
	bn   *nn.BatchNorm2D
	relu *nn.ReLU
}

// squareConv is the geometry of the convolutions both spaces decode to:
// k×k at stride 1.
func squareConv(inC, outC, k, pad int) nn.ConvGeom {
	return nn.ConvGeom{InC: inC, OutC: outC, KH: k, KW: k, Stride: 1, Pad: pad}
}

func newConvUnit(rng *rand.Rand, g nn.ConvGeom) (*convUnit, error) {
	conv, err := nn.NewConv2D(rng, g.InC, g.OutC, g.KH, g.KW, g.Stride, g.Pad)
	if err != nil {
		return nil, err
	}
	bn, err := nn.NewBatchNorm2D(g.OutC)
	if err != nil {
		return nil, err
	}
	return &convUnit{conv: conv, bn: bn, relu: nn.NewReLU()}, nil
}

func (u *convUnit) forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	y, err := u.conv.Forward(x, train)
	if err != nil {
		return nil, err
	}
	y, err = u.bn.Forward(y, train)
	if err != nil {
		return nil, err
	}
	return u.relu.Forward(y, train)
}

func (u *convUnit) backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	g, err := u.relu.Backward(grad)
	if err != nil {
		return nil, err
	}
	g, err = u.bn.Backward(g)
	if err != nil {
		return nil, err
	}
	return u.conv.Backward(g)
}

func (u *convUnit) params() []*nn.Param {
	ps := append([]*nn.Param(nil), u.conv.Params()...)
	return append(ps, u.bn.Params()...)
}

func (u *convUnit) flops(in []int) int64 { return unitFLOPs(u.conv.ConvGeom, in) }

// unitFLOPs is the per-sample cost of a convUnit around conv: the
// convolution, then batch norm and ReLU over its output.
func unitFLOPs(conv nn.ConvGeom, in []int) int64 {
	total := conv.FLOPs(in)
	out, err := conv.OutShape(in)
	if err != nil {
		return total
	}
	return total + nn.BatchNormGeom{C: conv.OutC}.FLOPs(out) + new(nn.ReLU).FLOPs(out)
}

// unitParams is the number of trainable scalars of a convUnit around conv.
func unitParams(conv nn.ConvGeom) int {
	return conv.NumParams() + nn.BatchNormGeom{C: conv.OutC}.NumParams()
}

// PhaseBlock is one decoded phase: an input-projection unit followed by
// the phase's active DAG of convolutional nodes. Node j's input is the
// sum of its active predecessors' outputs (or the projected phase input
// when it has none); the phase output is the sum of all sink nodes plus,
// when the genome's skip bit is set, the projected input (a residual
// connection). A phase whose DAG is empty degenerates to the projection
// unit alone, which is how all-zero genomes stay trainable while costing
// the fewest FLOPs.
type PhaseBlock struct {
	phaseGeom
	proj  *convUnit
	nodes []*convUnit // indexed by node id; nil when inactive

	// Per-node working lists and the buffers behind them, reused step
	// after step. outs[j] is node j's output of the current Forward and
	// grads[j] its output gradient of the current Backward; both may
	// point at a layer's own buffer. ins[j] backs the summed input of a
	// node with several predecessors, acc[j] the summed gradient of a
	// node that feeds others, sum and dx0 the block's output and the
	// gradient of the projected input.
	outs, grads []*tensor.Tensor
	ins, acc    []*tensor.Tensor
	sum, dx0    *tensor.Tensor
	trained     bool // a training Forward has filled the units' caches
}

// ws recycles the block buffers of discarded networks, like nn's layers.
var ws = tensor.NewWorkspace()

// copyInto returns buf, recycled through ws, holding a copy of src.
func copyInto(buf, src *tensor.Tensor) *tensor.Tensor {
	buf = ws.Obtain(buf, src.Shape()...)
	copy(buf.Data(), src.Data())
	return buf
}

// phaseGeom is a phase's geometry: its channel counts and active DAG,
// which fix the block's name, output shape, cost and parameter count
// before any unit exists. PhaseBlock embeds it, so a decoded block
// reports exactly what Cost computes.
type phaseGeom struct {
	inC, width int
	topo       phaseTopology
}

func newPhaseGeom(g *Genome, phase, inC, width int) (phaseGeom, error) {
	if phase < 0 || phase >= len(g.Phases) {
		return phaseGeom{}, fmt.Errorf("genome: phase %d out of range [0,%d)", phase, len(g.Phases))
	}
	if inC <= 0 || width <= 0 {
		return phaseGeom{}, fmt.Errorf("genome: PhaseBlock needs positive channels, got in=%d width=%d", inC, width)
	}
	return phaseGeom{inC: inC, width: width, topo: g.topology(phase)}, nil
}

// proj and node are the convolutions of the input-projection unit and of
// every active node.
func (b phaseGeom) proj() nn.ConvGeom { return squareConv(b.inC, b.width, 1, 0) }
func (b phaseGeom) node() nn.ConvGeom { return squareConv(b.width, b.width, 3, 1) }

// NewPhaseBlock decodes one phase of the genome into a block with the
// given input channels and phase width.
func NewPhaseBlock(rng *rand.Rand, g *Genome, phase, inC, width int) (*PhaseBlock, error) {
	geom, err := newPhaseGeom(g, phase, inC, width)
	if err != nil {
		return nil, err
	}
	proj, err := newConvUnit(rng, geom.proj())
	if err != nil {
		return nil, err
	}
	n := g.NodesPerPhase
	b := &PhaseBlock{phaseGeom: geom, proj: proj,
		nodes: make([]*convUnit, n),
		outs:  make([]*tensor.Tensor, n), grads: make([]*tensor.Tensor, n),
		ins: make([]*tensor.Tensor, n), acc: make([]*tensor.Tensor, n)}
	for j, active := range b.topo.active {
		if !active {
			continue
		}
		u, err := newConvUnit(rng, geom.node())
		if err != nil {
			return nil, err
		}
		b.nodes[j] = u
	}
	return b, nil
}

// Name implements nn.Layer.
func (b phaseGeom) Name() string {
	return fmt.Sprintf("phase(w=%d,nodes=%d,skip=%t)", b.width, b.topo.activeNodes(), b.topo.skip)
}

// numParams counts the trainable scalars of the projection unit and of
// one unit per active node.
func (b phaseGeom) numParams() int {
	return unitParams(b.proj()) + b.topo.activeNodes()*unitParams(b.node())
}

// Params implements nn.Layer.
func (b *PhaseBlock) Params() []*nn.Param {
	ps := b.proj.params()
	for _, u := range b.nodes {
		if u != nil {
			ps = append(ps, u.params()...)
		}
	}
	return ps
}

// StateTensors implements nn.Stateful: the batch-norm running statistics
// of the projection unit and every active node, so decoded networks
// serialize completely.
func (b *PhaseBlock) StateTensors() []*tensor.Tensor {
	out := b.proj.bn.StateTensors()
	for _, u := range b.nodes {
		if u != nil {
			out = append(out, u.bn.StateTensors()...)
		}
	}
	return out
}

// OutShape implements nn.Layer.
func (b phaseGeom) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != b.inC {
		return nil, fmt.Errorf("genome: %s expects (%d,H,W) input, got %v", b.Name(), b.inC, in)
	}
	return []int{b.width, in[1], in[2]}, nil
}

// FLOPs implements nn.Layer.
func (b phaseGeom) FLOPs(in []int) int64 {
	if _, err := b.OutShape(in); err != nil {
		return 0
	}
	total := unitFLOPs(b.proj(), in)
	nodeIn := []int{b.width, in[1], in[2]}
	spat := int64(in[1] * in[2])
	for j, active := range b.topo.active {
		if !active {
			continue
		}
		total += unitFLOPs(b.node(), nodeIn)
		// Summing k>1 predecessor maps costs (k−1)·width·H·W adds.
		if k := len(b.topo.preds[j]); k > 1 {
			total += int64(k-1) * int64(b.width) * spat
		}
	}
	if len(b.topo.outs) > 1 {
		total += int64(len(b.topo.outs)-1) * int64(b.width) * spat
	}
	if b.topo.skip {
		total += int64(b.width) * spat
	}
	return total
}

// Forward implements nn.Layer. The result lives in a buffer of the block
// (or of one of its units) that the next Forward overwrites.
func (b *PhaseBlock) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	x0, err := b.proj.forward(x, train)
	if err != nil {
		return nil, fmt.Errorf("genome: %s proj: %w", b.Name(), err)
	}
	if train {
		b.trained = true
	}
	if len(b.topo.outs) == 0 {
		return x0, nil
	}

	for j, u := range b.nodes {
		if u == nil {
			continue
		}
		in := x0
		if preds := b.topo.preds[j]; len(preds) == 1 {
			in = b.outs[preds[0]]
		} else if len(preds) > 1 {
			b.ins[j] = copyInto(b.ins[j], b.outs[preds[0]])
			in = b.ins[j]
			for _, i := range preds[1:] {
				in.AddScaled(b.outs[i], 1)
			}
		}
		if b.outs[j], err = u.forward(in, train); err != nil {
			return nil, fmt.Errorf("genome: %s node %d: %w", b.Name(), j, err)
		}
	}

	sinks := b.topo.outs
	if len(sinks) == 1 && !b.topo.skip {
		return b.outs[sinks[0]], nil
	}
	b.sum = copyInto(b.sum, b.outs[sinks[0]])
	for _, j := range sinks[1:] {
		b.sum.AddScaled(b.outs[j], 1)
	}
	if b.topo.skip {
		b.sum.AddScaled(x0, 1)
	}
	return b.sum, nil
}

// Backward implements nn.Layer. It reads only grad and the caches the
// units filled on the last training Forward, so evaluation Forwards in
// between do not disturb it.
func (b *PhaseBlock) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if !b.trained {
		return nil, fmt.Errorf("genome: %s: Backward without prior training Forward", b.Name())
	}
	if len(b.topo.outs) == 0 {
		return b.proj.backward(grad)
	}

	// Nodes keep the phase's shape, so x0's gradient has grad's. It is
	// summed from zero, not copied from its first term: 0 + (−0) is +0.
	b.dx0 = ws.ObtainZeroed(b.dx0, grad.Shape()...)
	clear(b.grads)
	for _, j := range b.topo.outs {
		b.grads[j] = grad // a sink feeds no node: nothing is added to it
	}
	if b.topo.skip {
		b.dx0.AddScaled(grad, 1)
	}
	for j := len(b.nodes) - 1; j >= 0; j-- {
		u := b.nodes[j]
		if u == nil {
			continue
		}
		if b.grads[j] == nil {
			// Every active node feeds some sink, so this is unreachable;
			// guard anyway to fail loudly rather than nil-panic.
			return nil, fmt.Errorf("genome: %s node %d received no gradient", b.Name(), j)
		}
		din, err := u.backward(b.grads[j])
		if err != nil {
			return nil, fmt.Errorf("genome: %s node %d backward: %w", b.Name(), j, err)
		}
		if preds := b.topo.preds[j]; len(preds) == 0 {
			b.dx0.AddScaled(din, 1)
		} else {
			for _, i := range preds {
				if b.grads[i] == nil {
					b.acc[i] = copyInto(b.acc[i], din)
					b.grads[i] = b.acc[i]
				} else {
					b.grads[i].AddScaled(din, 1)
				}
			}
		}
	}
	return b.proj.backward(b.dx0)
}

// DecodeConfig controls genome decoding.
type DecodeConfig struct {
	// InShape is the per-sample input shape (C, H, W).
	InShape []int
	// Widths gives the channel width of each phase; its length must match
	// the genome's phase count. Pooling halves the spatial size between
	// phases.
	Widths []int
	// NumClasses sizes the classifier head.
	NumClasses int
}

// DefaultDecodeConfig mirrors the laptop-scale evaluation setup: 32×32
// single-channel diffraction images, three phases widening 8→16→32, two
// classes. Real training uses this configuration.
func DefaultDecodeConfig() DecodeConfig {
	return DecodeConfig{InShape: []int{1, 32, 32}, Widths: []int{8, 16, 32}, NumClasses: 2}
}

// PaperDecodeConfig mirrors the paper-scale networks: 128×128 diffraction
// detectors and phase widths 16→32→64, which puts decoded models in the
// hundreds-of-MFLOPs range of the paper's accuracy-vs-FLOPS plots. The
// surrogate trainer uses it so simulated wall times land at paper scale
// (tens of hours per 100-network test on one device).
func PaperDecodeConfig() DecodeConfig {
	return DecodeConfig{InShape: []int{1, 128, 128}, Widths: []int{16, 32, 64}, NumClasses: 2}
}

// Validate reports the first problem with the configuration that no
// genome can fix, or nil: the checks every decode and Cost start with.
func (cfg DecodeConfig) Validate() error {
	if len(cfg.InShape) != 3 {
		return fmt.Errorf("genome: InShape must be (C,H,W), got %v", cfg.InShape)
	}
	if cfg.NumClasses < 2 {
		return fmt.Errorf("genome: NumClasses must be ≥ 2, got %d", cfg.NumClasses)
	}
	if len(cfg.Widths) == 0 {
		return fmt.Errorf("genome: no stage widths")
	}
	h, w := cfg.InShape[1], cfg.InShape[2]
	for range cfg.Widths[1:] {
		if h < 2 || w < 2 {
			return fmt.Errorf("genome: input %v too small for %d pooled stages", cfg.InShape, len(cfg.Widths))
		}
		h, w = h/2, w/2
	}
	return nil
}

// decodable reports why g cannot be decoded under cfg, or nil.
func decodable(g *Genome, cfg DecodeConfig) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if len(cfg.Widths) != len(g.Phases) {
		return fmt.Errorf("genome: %d widths for %d phases", len(cfg.Widths), len(g.Phases))
	}
	return nil
}

// Decode builds a trainable network from the genome: one PhaseBlock per
// phase with 2×2 max pooling between phases, then global average pooling
// and a dense classifier. Weights are initialised from rng; the network
// ID is the genome hash.
func Decode(g *Genome, cfg DecodeConfig, rng *rand.Rand) (*nn.Network, error) {
	if err := decodable(g, cfg); err != nil {
		return nil, err
	}
	return stack(g.Hash(), cfg, rng, func(p, inC, width int) (nn.Layer, error) {
		return NewPhaseBlock(rng, g, p, inC, width)
	})
}

// Cost is what a surrogate needs of Decode(g, cfg, rng) without the
// network: the summary's FLOPs, Params and Describe() equal the decoded
// network's FLOPs(), NumParams() and Describe(), computed from shapes
// alone — no weight is drawn or allocated. It visits the stage sequence
// Decode visits and prices each stage with the geometry the layers
// themselves report, and fails exactly when Decode would.
func Cost(g *Genome, cfg DecodeConfig) (*nn.Summary, error) {
	if err := decodable(g, cfg); err != nil {
		return nil, err
	}
	c := coster{g: g, sum: nn.NewSummary(g.Hash(), cfg.InShape)}
	if err := walkStages(cfg, &c); err != nil {
		return nil, err
	}
	return c.sum, nil
}

// coster is the stageVisitor behind Cost.
type coster struct {
	g   *Genome
	sum *nn.Summary
}

func (c *coster) block(i, inC, width int) error {
	geom, err := newPhaseGeom(c.g, i, inC, width)
	if err != nil {
		return err
	}
	return c.sum.Add(geom, geom.numParams())
}

func (c *coster) fixed(l nn.Layer) error { return c.sum.Add(l, 0) }

func (c *coster) classifier(in, classes int) error {
	d := nn.DenseGeom{In: in, Out: classes}
	return c.sum.Add(d, d.NumParams())
}
