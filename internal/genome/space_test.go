package genome

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"a4nn/internal/nn"
)

// validGenome is a genome the test can print and check.
type validGenome interface {
	String() string
	Validate() error
}

// space is the contract both search spaces meet (core.SearchSpace).
type space[G validGenome] interface {
	Validate() error
	Random(rng *rand.Rand) (G, error)
	Crossover(rng *rand.Rand, a, b G) (G, error)
	Mutate(rng *rand.Rand, g G) (G, error)
	Decode(g G, cfg DecodeConfig, rng *rand.Rand) (*nn.Network, error)
}

// spaceCase describes one space to the contract test: mutate is the
// genome's own mutation at the given rate, rate is the one the space
// mutates at, and golden is the FNV-64a of the serialized network
// Decode(parse(encoding), decode, seed 17) produced before the spaces
// shared stack.
type spaceCase[G validGenome] struct {
	space    space[G]
	mutate   func(g G, rng *rand.Rand, rate float64) G
	rate     float64
	parse    func(string) (G, error)
	encoding string
	decode   DecodeConfig
	golden   uint64
}

func TestSpaceContract(t *testing.T) {
	t.Run("macro", func(t *testing.T) {
		checkSpace(t, spaceCase[*Genome]{
			space:    MacroSpace{Phases: 3, NodesPerPhase: 4},
			mutate:   (*Genome).Mutate,
			rate:     1.0 / 21,
			parse:    func(s string) (*Genome, error) { return Parse(s, 4) },
			encoding: "1011011|0110101|1110110",
			decode:   DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{4, 8, 8}, NumClasses: 2},
			golden:   0x7660ad3ae7343aa6,
		})
	})
	t.Run("micro", func(t *testing.T) {
		checkSpace(t, spaceCase[*MicroGenome]{
			space:    MicroSpace{},
			mutate:   (*MicroGenome).Mutate,
			rate:     0.15,
			parse:    ParseMicro,
			encoding: "0.conv3+0.max3;1.conv5+0.id;1.avg3+2.conv3",
			decode:   DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{4, 8}, NumClasses: 2},
			golden:   0x2e9f3f955ae6e46c,
		})
	})
	t.Run("cost", checkCost)
	for _, bad := range []interface{ Validate() error }{
		MacroSpace{Phases: 0, NodesPerPhase: 4},
		MacroSpace{Phases: 3, NodesPerPhase: 0},
		MicroSpace{CellNodes: -1},
	} {
		if bad.Validate() == nil {
			t.Errorf("%+v must not validate", bad)
		}
	}
}

func checkSpace[G validGenome](t *testing.T, c spaceCase[G]) {
	s := c.space
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	// Every operator returns a valid genome, equal seeds give equal
	// genomes, and the space mutates at its rate: exactly like the
	// genome's own Mutate at c.rate.
	vary := func(seed int64, mutate func(rng *rand.Rand, g G) G) (random, child, mutant G) {
		rng := rand.New(rand.NewSource(seed))
		a, err := s.Random(rng)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Random(rng)
		if err != nil {
			t.Fatal(err)
		}
		child, err = s.Crossover(rng, a, b)
		if err != nil {
			t.Fatal(err)
		}
		mutant = mutate(rng, child)
		for _, g := range []G{a, b, child, mutant} {
			if err := g.Validate(); err != nil {
				t.Fatalf("seed %d: operator produced invalid genome %s: %v", seed, g, err)
			}
		}
		return a, child, mutant
	}
	viaSpace := func(rng *rand.Rand, g G) G {
		m, err := s.Mutate(rng, g)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	at := func(rate float64) func(rng *rand.Rand, g G) G {
		return func(rng *rand.Rand, g G) G { return c.mutate(g, rng, rate) }
	}
	changed := 0
	for seed := int64(0); seed < 50; seed++ {
		r1, c1, m1 := vary(seed, viaSpace)
		r2, c2, m2 := vary(seed, viaSpace)
		if r1.String() != r2.String() || c1.String() != c2.String() || m1.String() != m2.String() {
			t.Fatalf("seed %d: equal seeds gave different genomes", seed)
		}
		if _, _, md := vary(seed, at(c.rate)); md.String() != m1.String() {
			t.Fatalf("seed %d: space mutated to %s, rate %v to %s", seed, m1, c.rate, md)
		}
		if _, ca, ma := vary(seed, at(1)); ma.String() != ca.String() {
			changed++
		}
	}
	if changed == 0 {
		t.Error("rate 1 never changed a genome")
	}

	g, err := c.parse(c.encoding)
	if err != nil {
		t.Fatal(err)
	}
	net, err := s.Decode(g, c.decode, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	state, err := net.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(state)
	if h.Sum64() != c.golden {
		t.Errorf("decoded network state hashes to %#x, recorded %#x", h.Sum64(), c.golden)
	}
}

// checkCost holds Cost to Decode: the same FLOPs, parameter count and
// Describe text byte for byte wherever Decode succeeds, and an error
// wherever Decode fails.
func checkCost(t *testing.T) {
	same := func(g *Genome, cfg DecodeConfig) {
		t.Helper()
		net, err := Decode(g, cfg, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		flops, err := net.FLOPs()
		if err != nil {
			t.Fatal(err)
		}
		cost, err := Cost(g, cfg)
		if err != nil {
			t.Fatalf("%s: Decode succeeds but Cost fails: %v", g, err)
		}
		if cost.FLOPs != flops || cost.Params != net.NumParams() || cost.Describe() != net.Describe() {
			t.Fatalf("%s under %+v: Cost = %d FLOPs, %d params\n%s\nDecode = %d FLOPs, %d params\n%s",
				g, cfg, cost.FLOPs, cost.Params, cost.Describe(), flops, net.NumParams(), net.Describe())
		}
	}
	uniform := func(phases, nodes int, bit byte) *Genome {
		g := &Genome{NodesPerPhase: nodes}
		for p := 0; p < phases; p++ {
			bits := make([]byte, BitsPerPhase(nodes))
			for i := range bits {
				bits[i] = bit
			}
			g.Phases = append(g.Phases, bits)
		}
		return g
	}
	// The paper-scale config decodes 128×128 networks: a few random genomes
	// and the two extremes there, the bulk at laptop scale.
	paper, laptop := PaperDecodeConfig(), DefaultDecodeConfig()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		g, err := NewRandom(rng, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		same(g, laptop)
		if i < 4 {
			same(g, paper)
		}
	}
	for _, bit := range []byte{0, 1} { // projection-only phases; every node and skip on
		same(uniform(3, 4, bit), laptop)
		same(uniform(3, 4, bit), paper)
	}
	// Every single-phase bit pattern at 4 nodes.
	one := DecodeConfig{InShape: []int{2, 9, 7}, Widths: []int{5}, NumClasses: 3}
	for pattern := 0; pattern < 1<<7; pattern++ {
		bits := make([]byte, 7)
		for i := range bits {
			bits[i] = byte(pattern >> i & 1)
		}
		same(&Genome{NodesPerPhase: 4, Phases: [][]byte{bits}}, one)
	}
	// One to four phases, other node counts.
	for phases := 1; phases <= 4; phases++ {
		cfg := DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{4, 6, 8, 10}[:phases], NumClasses: 2}
		for _, nodes := range []int{1, 3, 5} {
			g, err := NewRandom(rng, phases, nodes)
			if err != nil {
				t.Fatal(err)
			}
			same(g, cfg)
		}
	}

	g := uniform(3, 4, 1)
	for name, cfg := range map[string]DecodeConfig{
		"rank-2 input":         {InShape: []int{16, 16}, Widths: []int{4, 8, 8}, NumClasses: 2},
		"one class":            {InShape: []int{1, 16, 16}, Widths: []int{4, 8, 8}, NumClasses: 1},
		"no widths":            {InShape: []int{1, 16, 16}, NumClasses: 2},
		"widths ≠ phases":      {InShape: []int{1, 16, 16}, Widths: []int{4, 8}, NumClasses: 2},
		"input too small":      {InShape: []int{1, 2, 2}, Widths: []int{4, 8, 8}, NumClasses: 2},
		"zero-sized input":     {InShape: []int{1, 0, 16}, Widths: []int{4, 8, 8}, NumClasses: 2},
		"non-positive width":   {InShape: []int{1, 16, 16}, Widths: []int{4, 0, 8}, NumClasses: 2},
		"non-positive channel": {InShape: []int{0, 16, 16}, Widths: []int{4, 8, 8}, NumClasses: 2},
	} {
		_, derr := Decode(g, cfg, rand.New(rand.NewSource(1)))
		_, cerr := Cost(g, cfg)
		if derr == nil || cerr == nil || derr.Error() != cerr.Error() {
			t.Errorf("%s: Decode error %v, Cost error %v; want the same error", name, derr, cerr)
		}
	}
	bad := &Genome{NodesPerPhase: 4, Phases: [][]byte{{9}}}
	if _, err := Cost(bad, laptop); err == nil {
		t.Error("Cost must reject an invalid genome")
	}
}
