package genome

import (
	"fmt"
	"math/rand"

	"a4nn/internal/nn"
	"a4nn/internal/tensor"
)

// microOp is one instantiated operation inside a cell. Conv ops carry
// weights; identity and pooling are stateless.
type microOp struct {
	op   Op
	conv *convUnit     // conv ops
	mp   *nn.MaxPool2D // max pool
	ap   *nn.AvgPool2D // avg pool
}

func newMicroOp(rng *rand.Rand, op Op, width int) (*microOp, error) {
	m := &microOp{op: op}
	var err error
	switch op {
	case OpIdentity:
	case OpConv3x3:
		m.conv, err = newConvUnit(rng, squareConv(width, width, 3, 1))
	case OpConv5x5:
		m.conv, err = newConvUnit(rng, squareConv(width, width, 5, 2))
	case OpMaxPool3x3:
		m.mp, err = nn.NewMaxPool2DPadded(3, 1, 1)
	case OpAvgPool3x3:
		m.ap, err = nn.NewAvgPool2DPadded(3, 1, 1)
	default:
		err = fmt.Errorf("genome: unknown micro op %d", op)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

func (m *microOp) forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	switch m.op {
	case OpIdentity:
		return x, nil
	case OpConv3x3, OpConv5x5:
		return m.conv.forward(x, train)
	case OpMaxPool3x3:
		return m.mp.Forward(x, train)
	default:
		return m.ap.Forward(x, train)
	}
}

func (m *microOp) backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	switch m.op {
	case OpIdentity:
		return grad, nil
	case OpConv3x3, OpConv5x5:
		return m.conv.backward(grad)
	case OpMaxPool3x3:
		return m.mp.Backward(grad)
	default:
		return m.ap.Backward(grad)
	}
}

func (m *microOp) params() []*nn.Param {
	if m.conv != nil {
		return m.conv.params()
	}
	return nil
}

func (m *microOp) stateTensors() []*tensor.Tensor {
	if m.conv != nil {
		return m.conv.bn.StateTensors()
	}
	return nil
}

func (m *microOp) flops(in []int) int64 {
	switch m.op {
	case OpIdentity:
		return 0
	case OpConv3x3, OpConv5x5:
		return m.conv.flops(in)
	case OpMaxPool3x3:
		return m.mp.FLOPs(in)
	default:
		return m.ap.FLOPs(in)
	}
}

// MicroCell is one decoded cell: an input projection to the cell width,
// the node DAG (each node adds the results of its two operations), and a
// 1×1 combiner over the concatenation of unused node outputs.
type MicroCell struct {
	inC, width int
	genome     *MicroGenome
	proj       *convUnit
	ops        [][2]*microOp // per node: the two operation instances
	outNodes   []int
	combine    *convUnit // 1×1 over len(outNodes)·width channels

	// forward caches
	values []*tensor.Tensor // values[0] = projected input, values[j+1] = node j
}

// NewMicroCell decodes the genome into a cell with the given input
// channels and width.
func NewMicroCell(rng *rand.Rand, g *MicroGenome, inC, width int) (*MicroCell, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if inC <= 0 || width <= 0 {
		return nil, fmt.Errorf("genome: MicroCell needs positive channels, got in=%d width=%d", inC, width)
	}
	proj, err := newConvUnit(rng, squareConv(inC, width, 1, 0))
	if err != nil {
		return nil, err
	}
	c := &MicroCell{inC: inC, width: width, genome: g.Clone(), proj: proj, outNodes: g.OutputNodes()}
	for _, n := range g.Nodes {
		op1, err := newMicroOp(rng, n.Op1, width)
		if err != nil {
			return nil, err
		}
		op2, err := newMicroOp(rng, n.Op2, width)
		if err != nil {
			return nil, err
		}
		c.ops = append(c.ops, [2]*microOp{op1, op2})
	}
	combine, err := newConvUnit(rng, squareConv(len(c.outNodes)*width, width, 1, 0))
	if err != nil {
		return nil, err
	}
	c.combine = combine
	return c, nil
}

// Name implements nn.Layer.
func (c *MicroCell) Name() string {
	return fmt.Sprintf("cell(w=%d,nodes=%d,outs=%d)", c.width, len(c.genome.Nodes), len(c.outNodes))
}

// Params implements nn.Layer.
func (c *MicroCell) Params() []*nn.Param {
	ps := c.proj.params()
	for _, pair := range c.ops {
		ps = append(ps, pair[0].params()...)
		ps = append(ps, pair[1].params()...)
	}
	return append(ps, c.combine.params()...)
}

// StateTensors implements nn.Stateful.
func (c *MicroCell) StateTensors() []*tensor.Tensor {
	out := c.proj.bn.StateTensors()
	for _, pair := range c.ops {
		out = append(out, pair[0].stateTensors()...)
		out = append(out, pair[1].stateTensors()...)
	}
	return append(out, c.combine.bn.StateTensors()...)
}

// OutShape implements nn.Layer.
func (c *MicroCell) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != c.inC {
		return nil, fmt.Errorf("genome: %s expects (%d,H,W) input, got %v", c.Name(), c.inC, in)
	}
	return []int{c.width, in[1], in[2]}, nil
}

// FLOPs implements nn.Layer.
func (c *MicroCell) FLOPs(in []int) int64 {
	if _, err := c.OutShape(in); err != nil {
		return 0
	}
	total := c.proj.flops(in)
	nodeIn := []int{c.width, in[1], in[2]}
	spat := int64(in[1] * in[2])
	for _, pair := range c.ops {
		total += pair[0].flops(nodeIn) + pair[1].flops(nodeIn)
		total += int64(c.width) * spat // the add combining the two halves
	}
	concatIn := []int{len(c.outNodes) * c.width, in[1], in[2]}
	return total + c.combine.flops(concatIn)
}

// Forward implements nn.Layer.
func (c *MicroCell) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	x0, err := c.proj.forward(x, train)
	if err != nil {
		return nil, fmt.Errorf("genome: %s proj: %w", c.Name(), err)
	}
	values := make([]*tensor.Tensor, len(c.genome.Nodes)+1)
	values[0] = x0
	for j, n := range c.genome.Nodes {
		a, err := c.ops[j][0].forward(values[n.In1], train)
		if err != nil {
			return nil, fmt.Errorf("genome: %s node %d op1: %w", c.Name(), j, err)
		}
		b, err := c.ops[j][1].forward(values[n.In2], train)
		if err != nil {
			return nil, fmt.Errorf("genome: %s node %d op2: %w", c.Name(), j, err)
		}
		values[j+1] = a.Add(b)
	}
	if train {
		c.values = values
	}
	concat, err := concatChannels(collect(values, c.outNodes))
	if err != nil {
		return nil, fmt.Errorf("genome: %s concat: %w", c.Name(), err)
	}
	return c.combine.forward(concat, train)
}

// collect gathers values[j+1] for the output nodes.
func collect(values []*tensor.Tensor, outNodes []int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(outNodes))
	for i, j := range outNodes {
		out[i] = values[j+1]
	}
	return out
}

// Backward implements nn.Layer.
func (c *MicroCell) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if c.values == nil {
		return nil, fmt.Errorf("genome: %s: Backward without prior training Forward", c.Name())
	}
	dConcat, err := c.combine.backward(grad)
	if err != nil {
		return nil, fmt.Errorf("genome: %s combine backward: %w", c.Name(), err)
	}
	parts, err := splitChannels(dConcat, len(c.outNodes), c.width)
	if err != nil {
		return nil, err
	}
	// Per-value gradient accumulators (index 0 = projected input).
	dvals := make([]*tensor.Tensor, len(c.values))
	for i, j := range c.outNodes {
		dvals[j+1] = parts[i]
	}
	for j := len(c.genome.Nodes) - 1; j >= 0; j-- {
		if dvals[j+1] == nil {
			// The node's output is unused and not a cell output — it is an
			// ancestor of nothing. It cannot happen: unused ⇒ cell output.
			return nil, fmt.Errorf("genome: %s node %d received no gradient", c.Name(), j)
		}
		n := c.genome.Nodes[j]
		da, err := c.ops[j][0].backward(dvals[j+1])
		if err != nil {
			return nil, fmt.Errorf("genome: %s node %d op1 backward: %w", c.Name(), j, err)
		}
		db, err := c.ops[j][1].backward(dvals[j+1])
		if err != nil {
			return nil, fmt.Errorf("genome: %s node %d op2 backward: %w", c.Name(), j, err)
		}
		accumulate(dvals, n.In1, da)
		accumulate(dvals, n.In2, db)
	}
	if dvals[0] == nil {
		// No node consumed the projected input (all nodes chain off node
		// outputs only — possible only when node 0 self-references input
		// 0... which it must, so this is unreachable); guard anyway.
		dvals[0] = tensor.New(c.values[0].Shape()...)
	}
	return c.proj.backward(dvals[0])
}

// accumulate adds g into dvals[i], cloning on first write so op-shared
// tensors (identity backward returns its input) are never mutated.
func accumulate(dvals []*tensor.Tensor, i int, g *tensor.Tensor) {
	if dvals[i] == nil {
		dvals[i] = g.Clone()
		return
	}
	dvals[i].AddScaled(g, 1)
}

// concatChannels concatenates NCHW tensors along the channel axis.
func concatChannels(ts []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("genome: concat of nothing")
	}
	n, h, w := ts[0].Dim(0), ts[0].Dim(2), ts[0].Dim(3)
	totalC := 0
	for i, t := range ts {
		if t.Rank() != 4 || t.Dim(0) != n || t.Dim(2) != h || t.Dim(3) != w {
			return nil, fmt.Errorf("genome: concat operand %d has shape %v", i, t.Shape())
		}
		totalC += t.Dim(1)
	}
	out := tensor.New(n, totalC, h, w)
	spat := h * w
	od := out.Data()
	for s := 0; s < n; s++ {
		off := s * totalC * spat
		for _, t := range ts {
			c := t.Dim(1)
			td := t.Data()
			copy(od[off:off+c*spat], td[s*c*spat:(s+1)*c*spat])
			off += c * spat
		}
	}
	return out, nil
}

// splitChannels splits an NCHW tensor into k equal channel groups, the
// adjoint of concatChannels for equal widths.
func splitChannels(t *tensor.Tensor, k, width int) ([]*tensor.Tensor, error) {
	if t.Rank() != 4 || t.Dim(1) != k*width {
		return nil, fmt.Errorf("genome: cannot split %v into %d×%d channels", t.Shape(), k, width)
	}
	n, h, w := t.Dim(0), t.Dim(2), t.Dim(3)
	spat := h * w
	td := t.Data()
	out := make([]*tensor.Tensor, k)
	for i := 0; i < k; i++ {
		part := tensor.New(n, width, h, w)
		pd := part.Data()
		for s := 0; s < n; s++ {
			src := (s*k*width + i*width) * spat
			copy(pd[s*width*spat:(s+1)*width*spat], td[src:src+width*spat])
		}
		out[i] = part
	}
	return out, nil
}

// DecodeMicro builds a trainable network from a micro genome: one
// MicroCell per stage (channel widths from cfg.Widths) with 2×2 max
// pooling between stages, then global average pooling and a dense
// classifier.
func DecodeMicro(g *MicroGenome, cfg DecodeConfig, rng *rand.Rand) (*nn.Network, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return stack(g.Hash(), cfg, rng, func(_, inC, width int) (nn.Layer, error) {
		return NewMicroCell(rng, g, inC, width)
	})
}
