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
	// NSGA-Net's macro space uses 3 phases).
	Phases, NodesPerPhase int
	// MutationRate is the per-bit flip probability; 0 selects
	// 1/(bits per genome), one expected flip per child.
	MutationRate float64
}

// Validate reports the first problem with the space's parameters, or nil.
func (s MacroSpace) Validate() error {
	if s.Phases < 1 || s.NodesPerPhase < 1 {
		return fmt.Errorf("genome: need ≥ 1 phases and nodes, got %d, %d", s.Phases, s.NodesPerPhase)
	}
	return validRate(s.MutationRate)
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
	rate := s.MutationRate
	if rate == 0 {
		rate = 1 / float64(s.Phases*BitsPerPhase(s.NodesPerPhase))
	}
	return g.Mutate(rng, rate), nil
}

// Decode builds the genome's trainable network; see the package's Decode.
func (s MacroSpace) Decode(g *Genome, cfg DecodeConfig, rng *rand.Rand) (*nn.Network, error) {
	return Decode(g, cfg, rng)
}

// MicroSpace is NSGA-Net's micro (cell-based) space.
type MicroSpace struct {
	// CellNodes is the number of DAG nodes per cell; 0 selects 3.
	CellNodes int
	// MutationRate is the per-field redraw probability; 0 selects 0.15.
	MutationRate float64
}

// Validate reports the first problem with the space's parameters, or nil.
func (s MicroSpace) Validate() error {
	if s.CellNodes < 0 {
		return fmt.Errorf("genome: CellNodes must be ≥ 1 (or 0 for the default), got %d", s.CellNodes)
	}
	return validRate(s.MutationRate)
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
	rate := s.MutationRate
	if rate == 0 {
		rate = 0.15
	}
	return g.Mutate(rng, rate), nil
}

// Decode builds the cell's trainable network; see DecodeMicro.
func (s MicroSpace) Decode(g *MicroGenome, cfg DecodeConfig, rng *rand.Rand) (*nn.Network, error) {
	return DecodeMicro(g, cfg, rng)
}

func validRate(r float64) error {
	if !(r >= 0 && r <= 1) {
		return fmt.Errorf("genome: MutationRate %v outside [0,1]", r)
	}
	return nil
}

// stack assembles the network both spaces decode to: one block per entry
// of cfg.Widths with 2×2 max pooling between blocks, then global average
// pooling and a dense classifier. block builds stage i's layer; blocks
// and the classifier draw their weights from rng in stage order.
func stack(id string, cfg DecodeConfig, rng *rand.Rand, block func(i, inC, width int) (nn.Layer, error)) (*nn.Network, error) {
	if len(cfg.InShape) != 3 {
		return nil, fmt.Errorf("genome: InShape must be (C,H,W), got %v", cfg.InShape)
	}
	if cfg.NumClasses < 2 {
		return nil, fmt.Errorf("genome: NumClasses must be ≥ 2, got %d", cfg.NumClasses)
	}
	if len(cfg.Widths) == 0 {
		return nil, fmt.Errorf("genome: no stage widths")
	}
	var layers []nn.Layer
	inC := cfg.InShape[0]
	h, w := cfg.InShape[1], cfg.InShape[2]
	for i, width := range cfg.Widths {
		b, err := block(i, inC, width)
		if err != nil {
			return nil, err
		}
		layers = append(layers, b)
		inC = width
		if i < len(cfg.Widths)-1 {
			if h < 2 || w < 2 {
				return nil, fmt.Errorf("genome: input %v too small for %d pooled stages", cfg.InShape, len(cfg.Widths))
			}
			pool, err := nn.NewMaxPool2D(2, 2)
			if err != nil {
				return nil, err
			}
			layers = append(layers, pool)
			h, w = h/2, w/2
		}
	}
	layers = append(layers, nn.NewGlobalAvgPool2D())
	dense, err := nn.NewDense(rng, inC, cfg.NumClasses)
	if err != nil {
		return nil, err
	}
	layers = append(layers, dense)
	return nn.NewNetwork(id, cfg.InShape, layers...)
}
