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

// spaceCase describes one space to the contract test: withRate builds it
// with the given mutation rate, defaultRate is the rate a zero selects,
// and golden is the FNV-64a of the serialized network Decode(parse
// (encoding), decode, seed 17) produced before the spaces shared stack.
type spaceCase[G validGenome] struct {
	withRate    func(rate float64) space[G]
	defaultRate float64
	parse       func(string) (G, error)
	encoding    string
	decode      DecodeConfig
	golden      uint64
}

func TestSpaceContract(t *testing.T) {
	t.Run("macro", func(t *testing.T) {
		checkSpace(t, spaceCase[*Genome]{
			withRate: func(r float64) space[*Genome] {
				return MacroSpace{Phases: 3, NodesPerPhase: 4, MutationRate: r}
			},
			defaultRate: 1.0 / 21,
			parse:       func(s string) (*Genome, error) { return Parse(s, 4) },
			encoding:    "1011011|0110101|1110110",
			decode:      DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{4, 8, 8}, NumClasses: 2},
			golden:      0x7660ad3ae7343aa6,
		})
	})
	t.Run("micro", func(t *testing.T) {
		checkSpace(t, spaceCase[*MicroGenome]{
			withRate:    func(r float64) space[*MicroGenome] { return MicroSpace{MutationRate: r} },
			defaultRate: 0.15,
			parse:       ParseMicro,
			encoding:    "0.conv3+0.max3;1.conv5+0.id;1.avg3+2.conv3",
			decode:      DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{4, 8}, NumClasses: 2},
			golden:      0x2e9f3f955ae6e46c,
		})
	})
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
	for _, rate := range []float64{-0.1, 1.5} {
		if c.withRate(rate).Validate() == nil {
			t.Errorf("mutation rate %v must be rejected", rate)
		}
	}
	zero, def, all := c.withRate(0), c.withRate(c.defaultRate), c.withRate(1)
	for _, s := range []space[G]{zero, def, all} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}

	// Every operator returns a valid genome, equal seeds give equal
	// genomes, and a zero rate mutates exactly like the space's default.
	vary := func(s space[G], seed int64) (random, child, mutant G) {
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
		mutant, err = s.Mutate(rng, child)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []G{a, b, child, mutant} {
			if err := g.Validate(); err != nil {
				t.Fatalf("seed %d: operator produced invalid genome %s: %v", seed, g, err)
			}
		}
		return a, child, mutant
	}
	changed := 0
	for seed := int64(0); seed < 50; seed++ {
		r1, c1, m1 := vary(zero, seed)
		r2, c2, m2 := vary(zero, seed)
		if r1.String() != r2.String() || c1.String() != c2.String() || m1.String() != m2.String() {
			t.Fatalf("seed %d: equal seeds gave different genomes", seed)
		}
		if _, _, md := vary(def, seed); md.String() != m1.String() {
			t.Fatalf("seed %d: zero rate mutated to %s, default rate %v to %s", seed, m1, c.defaultRate, md)
		}
		if _, ca, ma := vary(all, seed); ma.String() != ca.String() {
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
	net, err := zero.Decode(g, c.decode, rand.New(rand.NewSource(17)))
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
