package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"

	"a4nn/internal/tensor"
)

// Network is an ordered sequence of layers trained end to end.
type Network struct {
	// ID labels the network (the NAS uses the genome hash).
	ID string
	// InShape is the per-sample input shape, e.g. (C, H, W).
	InShape []int
	Layers  []Layer

	// prof caches the per-layer profiler binding (see profile.go); nil
	// until a profiler is installed and the network first runs.
	prof *profBinding
}

// NewNetwork validates that the layers compose over the given input shape
// and returns the network.
func NewNetwork(id string, inShape []int, layers ...Layer) (*Network, error) {
	n := &Network{ID: id, InShape: append([]int(nil), inShape...), Layers: layers}
	if _, err := n.OutShape(); err != nil {
		return nil, err
	}
	return n, nil
}

// OutShape returns the per-sample output shape of the whole network.
func (n *Network) OutShape() ([]int, error) {
	shape := n.InShape
	for i, l := range n.Layers {
		out, err := l.OutShape(shape)
		if err != nil {
			return nil, fmt.Errorf("nn: network %q layer %d (%s): %w", n.ID, i, l.Name(), err)
		}
		shape = out
	}
	return shape, nil
}

// Forward runs the batch through every layer. With a profiler
// installed (SetProfiler) each layer's wall time and FLOPs are
// accounted; disabled, the check is one atomic load and a branch.
func (n *Network) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if p := activeProf.Load(); p != nil {
		return n.forwardProfiled(p, x, train)
	}
	var err error
	for i, l := range n.Layers {
		x, err = l.Forward(x, train)
		if err != nil {
			return nil, wrapLayerErr(n, i, "forward", err)
		}
	}
	return x, nil
}

// Backward propagates ∂L/∂output back through every layer, accumulating
// parameter gradients.
func (n *Network) Backward(grad *tensor.Tensor) error {
	if p := activeProf.Load(); p != nil {
		return n.backwardProfiled(p, grad)
	}
	var err error
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad, err = n.Layers[i].Backward(grad)
		if err != nil {
			return wrapLayerErr(n, i, "backward", err)
		}
	}
	return nil
}

// Release hands every layer's workspace buffers back to the workspace, for
// the next network to train on; the runner calls it when a model attempt
// ends. Parameters, batch-norm running statistics and the optimizer's
// state stay, so a released network still saves its state, and its next
// Forward obtains buffers again.
func (n *Network) Release() {
	for _, l := range n.Layers {
		if r, ok := l.(Releaser); ok {
			r.Release()
		}
	}
}

// wrapLayerErr annotates a layer failure with its network and position.
func wrapLayerErr(n *Network, layer int, pass string, err error) error {
	return fmt.Errorf("nn: network %q layer %d %s: %w", n.ID, layer, pass, err)
}

// Params returns every trainable parameter in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total number of trainable scalars.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Len()
	}
	return total
}

// FLOPs estimates the floating-point operations of one forward pass for a
// single sample. The experiment harness reports MFLOPs (FLOPs/1e6), which
// is the unit the paper's accuracy-vs-FLOPS Pareto plots use.
func (n *Network) FLOPs() (int64, error) {
	s, err := n.summary()
	if err != nil {
		return 0, err
	}
	return s.FLOPs, nil
}

// Describe renders a one-line-per-layer architecture summary.
func (n *Network) Describe() string {
	s, _ := n.summary() // a shape error is part of the text
	return s.Describe()
}

// summary runs the network's layers through a Summary.
func (n *Network) summary() (*Summary, error) {
	s := NewSummary(n.ID, n.InShape)
	for _, l := range n.Layers {
		params := 0
		for _, p := range l.Params() {
			params += p.Value.Len()
		}
		if err := s.Add(l, params); err != nil {
			return s, err
		}
	}
	return s, nil
}

// Geometry is a layer without its weights: the name, per-sample shape
// arithmetic and cost a Summary is built from. Every Layer is one; so are
// the weight-free ConvGeom, BatchNormReLUGeom and DenseGeom.
type Geometry interface {
	Name() string
	OutShape(in []int) ([]int, error)
	FLOPs(in []int) int64
}

// Summary is what Network.FLOPs, NumParams and Describe report, built one
// stage at a time from geometry alone: the surrogate trainer needs exactly
// these three of a decoded network, and reads them through genome.Cost
// without the network.
type Summary struct {
	// FLOPs and Params total the stages added so far.
	FLOPs  int64
	Params int

	id     string
	shape  []int // per-sample input shape of the next stage
	stages int
	failed bool
	text   strings.Builder
}

// NewSummary starts the summary of network id over per-sample inputs of
// shape inShape.
func NewSummary(id string, inShape []int) *Summary {
	s := &Summary{id: id, shape: inShape}
	fmt.Fprintf(&s.text, "network %q input %v\n", id, inShape)
	return s
}

// Add appends the next stage, which holds params trainable scalars. It
// fails when the stage does not accept the shape the stages so far produce.
func (s *Summary) Add(g Geometry, params int) error {
	out, err := g.OutShape(s.shape)
	if err != nil {
		s.failed = true
		fmt.Fprintf(&s.text, "  %2d %-28s <shape error: %v>\n", s.stages, g.Name(), err)
		return fmt.Errorf("nn: network %q layer %d (%s): %w", s.id, s.stages, g.Name(), err)
	}
	fmt.Fprintf(&s.text, "  %2d %-28s %v -> %v\n", s.stages, g.Name(), s.shape, out)
	s.FLOPs += g.FLOPs(s.shape)
	s.Params += params
	s.shape = out
	s.stages++
	return nil
}

// Describe renders the stages added so far, one line each, and the totals.
func (s *Summary) Describe() string {
	if s.failed {
		return s.text.String()
	}
	return s.text.String() + fmt.Sprintf("params=%d flops=%d\n", s.Params, s.FLOPs)
}

// Stateful is implemented by layers carrying non-trainable state that
// must survive serialization (batch-norm running statistics). Composite
// layers (e.g. the genome package's PhaseBlock) aggregate their children's
// state tensors. The returned tensors are live views: mutating them
// mutates the layer.
type Stateful interface {
	StateTensors() []*tensor.Tensor
}

// BatchNormer is implemented by composite layers holding batch-norm
// layers.
type BatchNormer interface {
	BatchNorms() []*BatchNormReLU
}

// batchNorms lists the network's batch-norm layers, nested ones
// included, in layer order.
func (n *Network) batchNorms() []*BatchNormReLU {
	var out []*BatchNormReLU
	for _, l := range n.Layers {
		switch l := l.(type) {
		case *BatchNormReLU:
			out = append(out, l)
		case BatchNormer:
			out = append(out, l.BatchNorms()...)
		}
	}
	return out
}

// stateTensors collects every Stateful layer's tensors in layer order.
func (n *Network) stateTensors() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range n.Layers {
		if s, ok := l.(Stateful); ok {
			out = append(out, s.StateTensors()...)
		}
	}
	return out
}

// netState is the gob wire form of a network's parameters and layer
// state (batch-norm running statistics).
type netState struct {
	ID     string
	Params [][]float64
	State  [][]float64
}

// SaveState serialises the network's trainable parameters and the
// non-trainable state of every Stateful layer (including those nested in
// composite layers). Together with the genome (which reconstructs the
// architecture) this is the "model state" the lineage tracker snapshots
// after every epoch (paper §2.2.2).
func (n *Network) SaveState() ([]byte, error) {
	st := netState{ID: n.ID}
	for _, p := range n.Params() {
		st.Params = append(st.Params, append([]float64(nil), p.Value.Data()...))
	}
	for _, s := range n.stateTensors() {
		st.State = append(st.State, append([]float64(nil), s.Data()...))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("nn: encode state of %q: %w", n.ID, err)
	}
	return buf.Bytes(), nil
}

// LoadState restores parameters and layer state saved by SaveState into
// an architecturally identical network.
func (n *Network) LoadState(data []byte) error {
	var st netState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("nn: decode state: %w", err)
	}
	params := n.Params()
	if len(st.Params) != len(params) {
		return fmt.Errorf("nn: state has %d parameter tensors, network %q has %d", len(st.Params), n.ID, len(params))
	}
	for i, p := range params {
		if len(st.Params[i]) != p.Value.Len() {
			return fmt.Errorf("nn: parameter %d size mismatch: state %d vs network %d", i, len(st.Params[i]), p.Value.Len())
		}
	}
	states := n.stateTensors()
	if len(st.State) != len(states) {
		return fmt.Errorf("nn: state has %d state tensors, network %q has %d", len(st.State), n.ID, len(states))
	}
	for i, s := range states {
		if len(st.State[i]) != s.Len() {
			return fmt.Errorf("nn: state tensor %d size mismatch: state %d vs network %d", i, len(st.State[i]), s.Len())
		}
	}
	// All sizes verified: apply.
	for i, p := range params {
		copy(p.Value.Data(), st.Params[i])
	}
	for i, s := range states {
		copy(s.Data(), st.State[i])
	}
	return nil
}

// trainingState is the gob wire form of SaveTraining.
type trainingState struct {
	Net      []byte
	Counts   []int
	Velocity [][]float64
}

// SaveTraining serialises what continuing training bit for bit needs:
// SaveState's bytes, the count of training batches each batch-norm layer
// has seen (its running statistics' warm-up) and the optimizer's momentum
// buffers of the parameters.
func (n *Network) SaveTraining(opt *SGD) ([]byte, error) {
	st := trainingState{}
	var err error
	if st.Net, err = n.SaveState(); err != nil {
		return nil, err
	}
	for _, b := range n.batchNorms() {
		st.Counts = append(st.Counts, b.updates)
	}
	for _, p := range n.Params() {
		st.Velocity = append(st.Velocity, opt.velocity[p])
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("nn: encode training state of %q: %w", n.ID, err)
	}
	return buf.Bytes(), nil
}

// LoadTraining restores what SaveTraining wrote into an architecturally
// identical network and its optimizer. It also takes SaveState's bytes
// alone, as an earlier build checkpointed them; batch counts and
// momentum then start from zero.
func (n *Network) LoadTraining(data []byte, opt *SGD) error {
	var st trainingState
	if gob.NewDecoder(bytes.NewReader(data)).Decode(&st) != nil {
		st = trainingState{Net: data}
	}
	bns, params := n.batchNorms(), n.Params()
	if st.Counts != nil && len(st.Counts) != len(bns) || st.Velocity != nil && len(st.Velocity) != len(params) {
		return fmt.Errorf("nn: training state has %d batch counts and %d momentum buffers, network %q has %d and %d",
			len(st.Counts), len(st.Velocity), n.ID, len(bns), len(params))
	}
	if err := n.LoadState(st.Net); err != nil {
		return err
	}
	for i, c := range st.Counts {
		bns[i].updates = c
	}
	for i, v := range st.Velocity {
		switch {
		case len(v) == 0:
		case len(v) != params[i].Value.Len():
			return fmt.Errorf("nn: momentum buffer %d has %d values for %d", i, len(v), params[i].Value.Len())
		default:
			opt.velocity[params[i]] = v
		}
	}
	return nil
}
