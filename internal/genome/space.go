package genome

import (
	"fmt"
	"math/rand"

	"a4nn/internal/nn"
)

// MacroSpace is the NSGA-Net macro space the paper evaluates. Like
// MicroSpace it satisfies core.SearchSpace: the variation operators
// NSGA-II drives, validation of its own parameters, and Decode.
type MacroSpace struct {
	// Phases and NodesPerPhase shape the genomes (Table 2: 4 nodes;
	// NSGA-Net's macro space uses 3 phases). Mutation flips each bit with
	// probability 1/(bits per genome), one expected flip per child.
	Phases, NodesPerPhase int
}

// Validate reports the first problem with the space's parameters, or nil.
func (s MacroSpace) Validate() error {
	if s.Phases < 1 || s.NodesPerPhase < 1 {
		return fmt.Errorf("genome: need ≥ 1 phases and nodes, got %d, %d", s.Phases, s.NodesPerPhase)
	}
	return nil
}

// Random implements nsga.Operators.
func (s MacroSpace) Random(rng *rand.Rand) (*Genome, error) {
	return NewRandom(rng, s.Phases, s.NodesPerPhase)
}

// Crossover implements nsga.Operators.
func (s MacroSpace) Crossover(rng *rand.Rand, a, b *Genome) (*Genome, error) {
	return Crossover(rng, a, b)
}

// Mutate implements nsga.Operators.
func (s MacroSpace) Mutate(rng *rand.Rand, g *Genome) (*Genome, error) {
	return g.Mutate(rng, 1/float64(s.Phases*BitsPerPhase(s.NodesPerPhase))), nil
}

// Decode builds the genome's trainable network; see the package's Decode.
func (s MacroSpace) Decode(g *Genome, cfg DecodeConfig, rng *rand.Rand) (*nn.Network, error) {
	return Decode(g, cfg, rng)
}

// microMutationRate is the micro space's per-field redraw probability.
const microMutationRate = 0.15

// MicroSpace is NSGA-Net's micro (cell-based) space.
type MicroSpace struct {
	// CellNodes is the number of DAG nodes per cell; 0 selects 3.
	CellNodes int
}

// Validate reports the first problem with the space's parameters, or nil.
func (s MicroSpace) Validate() error {
	if s.CellNodes < 0 {
		return fmt.Errorf("genome: CellNodes must be ≥ 1 (or 0 for the default), got %d", s.CellNodes)
	}
	return nil
}

// Random implements nsga.Operators.
func (s MicroSpace) Random(rng *rand.Rand) (*MicroGenome, error) {
	nodes := s.CellNodes
	if nodes == 0 {
		nodes = 3
	}
	return NewRandomMicro(rng, nodes)
}

// Crossover implements nsga.Operators.
func (s MicroSpace) Crossover(rng *rand.Rand, a, b *MicroGenome) (*MicroGenome, error) {
	return CrossoverMicro(rng, a, b)
}

// Mutate implements nsga.Operators.
func (s MicroSpace) Mutate(rng *rand.Rand, g *MicroGenome) (*MicroGenome, error) {
	return g.Mutate(rng, microMutationRate), nil
}

// Decode builds the cell's trainable network; see DecodeMicro.
func (s MicroSpace) Decode(g *MicroGenome, cfg DecodeConfig, rng *rand.Rand) (*nn.Network, error) {
	return DecodeMicro(g, cfg, rng)
}

// stageVisitor receives, in order, the stage sequence both spaces decode
// to: one block per entry of cfg.Widths with 2×2 max pooling between
// blocks, then global average pooling and a dense classifier.
type stageVisitor interface {
	// block is stage i's block, from inC channels to width.
	block(i, inC, width int) error
	// fixed is a layer the sequence fixes by itself: it has no weights.
	fixed(l nn.Layer) error
	// classifier is the dense head, from in features to classes.
	classifier(in, classes int) error
}

// walkStages validates cfg and shows v every stage. It is the one place
// the sequence is written down: decoding and Cost are its two visitors.
func walkStages(cfg DecodeConfig, v stageVisitor) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	inC := cfg.InShape[0]
	for i, width := range cfg.Widths {
		if err := v.block(i, inC, width); err != nil {
			return err
		}
		inC = width
		if i < len(cfg.Widths)-1 {
			pool, err := nn.NewMaxPool2D(2, 2)
			if err != nil {
				return err
			}
			if err := v.fixed(pool); err != nil {
				return err
			}
		}
	}
	if err := v.fixed(nn.NewGlobalAvgPool2D()); err != nil {
		return err
	}
	return v.classifier(inC, cfg.NumClasses)
}

// builder is the stageVisitor that decodes: it collects trainable layers,
// blocks from newBlock and the classifier drawing their weights from rng
// in stage order.
type builder struct {
	rng      *rand.Rand
	newBlock func(i, inC, width int) (nn.Layer, error)
	layers   []nn.Layer
}

func (b *builder) block(i, inC, width int) error {
	l, err := b.newBlock(i, inC, width)
	if err != nil {
		return err
	}
	b.layers = append(b.layers, l)
	return nil
}

func (b *builder) fixed(l nn.Layer) error {
	b.layers = append(b.layers, l)
	return nil
}

func (b *builder) classifier(in, classes int) error {
	dense, err := nn.NewDense(b.rng, in, classes)
	if err != nil {
		return err
	}
	b.layers = append(b.layers, dense)
	return nil
}

// stack assembles the network both spaces decode to (see stageVisitor);
// block builds stage i's layer.
func stack(id string, cfg DecodeConfig, rng *rand.Rand, block func(i, inC, width int) (nn.Layer, error)) (*nn.Network, error) {
	b := builder{rng: rng, newBlock: block}
	if err := walkStages(cfg, &b); err != nil {
		return nil, err
	}
	return nn.NewNetwork(id, cfg.InShape, b.layers...)
}
