// Package genome implements the NSGA-Net macro search space (Lu et al.,
// used unchanged by the paper, §3.2): a network is a sequence of phases,
// each phase a small DAG of convolutional nodes whose connectivity is a
// bit string. For n nodes per phase the string holds n(n−1)/2 inter-node
// connection bits plus one residual skip bit. Genomes support the two
// NSGA-Net variation operators (uniform crossover and per-bit mutation),
// hash-based identity for the data commons, and decoding into a trainable
// nn.Network.
package genome

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
)

// Genome encodes one architecture: one bit string per phase.
type Genome struct {
	// NodesPerPhase is the DAG size n of every phase (paper Table 2: 4).
	NodesPerPhase int
	// Phases holds one bit string per phase, each of length
	// n(n−1)/2 + 1; bits are stored as 0/1 bytes. The final bit of each
	// phase is the residual skip-connection bit.
	Phases [][]byte
}

// BitsPerPhase returns the encoding length for n nodes per phase.
func BitsPerPhase(n int) int { return n*(n-1)/2 + 1 }

// NewRandom draws a genome uniformly at random.
func NewRandom(rng *rand.Rand, phases, nodesPerPhase int) (*Genome, error) {
	if phases < 1 || nodesPerPhase < 1 {
		return nil, fmt.Errorf("genome: need ≥1 phases and nodes, got %d, %d", phases, nodesPerPhase)
	}
	g := &Genome{NodesPerPhase: nodesPerPhase, Phases: make([][]byte, phases)}
	bits := BitsPerPhase(nodesPerPhase)
	for p := range g.Phases {
		g.Phases[p] = make([]byte, bits)
		for i := range g.Phases[p] {
			if rng.Intn(2) == 1 {
				g.Phases[p][i] = 1
			}
		}
	}
	return g, nil
}

// Validate reports the first structural problem, or nil.
func (g *Genome) Validate() error {
	if g.NodesPerPhase < 1 {
		return fmt.Errorf("genome: NodesPerPhase = %d", g.NodesPerPhase)
	}
	// BitsPerPhase's n(n−1) must fit in an int, checked without
	// wrapping: a huge n from a hostile record could wrap the bit count
	// to any short length.
	if hi, lo := bits.Mul64(uint64(g.NodesPerPhase), uint64(g.NodesPerPhase-1)); hi != 0 || lo > math.MaxInt {
		return fmt.Errorf("genome: NodesPerPhase = %d: its bit count overflows an int", g.NodesPerPhase)
	}
	if len(g.Phases) == 0 {
		return fmt.Errorf("genome: no phases")
	}
	want := BitsPerPhase(g.NodesPerPhase)
	for p, phase := range g.Phases {
		if len(phase) != want {
			return fmt.Errorf("genome: phase %d has %d bits, want %d", p, len(phase), want)
		}
		for i, b := range phase {
			if b != 0 && b != 1 {
				return fmt.Errorf("genome: phase %d bit %d is %d, want 0 or 1", p, i, b)
			}
		}
	}
	return nil
}

// Clone returns a deep copy.
func (g *Genome) Clone() *Genome {
	c := &Genome{NodesPerPhase: g.NodesPerPhase, Phases: make([][]byte, len(g.Phases))}
	for p := range g.Phases {
		c.Phases[p] = append([]byte(nil), g.Phases[p]...)
	}
	return c
}

// Equal reports whether two genomes encode the same architecture.
func (g *Genome) Equal(o *Genome) bool {
	if o == nil || g.NodesPerPhase != o.NodesPerPhase || len(g.Phases) != len(o.Phases) {
		return false
	}
	for p := range g.Phases {
		if len(g.Phases[p]) != len(o.Phases[p]) {
			return false
		}
		for i := range g.Phases[p] {
			if g.Phases[p][i] != o.Phases[p][i] {
				return false
			}
		}
	}
	return true
}

// String renders the genome as phase bit strings joined by '|', e.g.
// "1010110|0001101|1110000".
func (g *Genome) String() string {
	var parts []string
	for _, bits := range g.Phases {
		var b strings.Builder
		for _, bit := range bits {
			b.WriteByte('0' + bit)
		}
		parts = append(parts, b.String())
	}
	return strings.Join(parts, "|")
}

// Parse reconstructs a genome from the String representation given the
// node count.
func Parse(s string, nodesPerPhase int) (*Genome, error) {
	parts := strings.Split(s, "|")
	g := &Genome{NodesPerPhase: nodesPerPhase, Phases: make([][]byte, len(parts))}
	for p, part := range parts {
		g.Phases[p] = make([]byte, len(part))
		for i := 0; i < len(part); i++ {
			switch part[i] {
			case '0':
				g.Phases[p][i] = 0
			case '1':
				g.Phases[p][i] = 1
			default:
				return nil, fmt.Errorf("genome: invalid character %q in %q", part[i], s)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Hash returns a short hex digest identifying the architecture; the data
// commons uses it as the model ID.
func (g *Genome) Hash() string {
	h := sha256.Sum256([]byte(g.String()))
	return hex.EncodeToString(h[:8])
}

// connBit returns the connection bit "node j receives from node i" for
// i < j, using the conventional triangular layout: bits for j=1 (from 0),
// then j=2 (from 0, 1), etc.
func connBit(bits []byte, i, j int) byte {
	// Offset of node j's group: 0+1+...+(j-1) = j(j-1)/2.
	return bits[j*(j-1)/2+i]
}

// SkipBit reports whether the phase's residual skip connection is on.
func (g *Genome) SkipBit(phase int) bool {
	bits := g.Phases[phase]
	return bits[len(bits)-1] == 1
}

// Mutate flips each bit independently with the given probability,
// returning a new genome (the receiver is unchanged). NSGA-Net's default
// is roughly one expected flip per genome.
func (g *Genome) Mutate(rng *rand.Rand, perBit float64) *Genome {
	c := g.Clone()
	for p := range c.Phases {
		for i := range c.Phases[p] {
			if rng.Float64() < perBit {
				c.Phases[p][i] ^= 1
			}
		}
	}
	return c
}

// Crossover performs uniform crossover: each bit of the child comes from
// either parent with equal probability. Both parents must share a shape.
func Crossover(rng *rand.Rand, a, b *Genome) (*Genome, error) {
	if a.NodesPerPhase != b.NodesPerPhase || len(a.Phases) != len(b.Phases) {
		return nil, fmt.Errorf("genome: crossover of incompatible genomes (%d/%d phases, %d/%d nodes)",
			len(a.Phases), len(b.Phases), a.NodesPerPhase, b.NodesPerPhase)
	}
	c := a.Clone()
	for p := range c.Phases {
		if len(b.Phases[p]) != len(c.Phases[p]) {
			return nil, fmt.Errorf("genome: crossover phase %d length mismatch", p)
		}
		for i := range c.Phases[p] {
			if rng.Intn(2) == 1 {
				c.Phases[p][i] = b.Phases[p][i]
			}
		}
	}
	return c, nil
}

// phaseTopology derives the active DAG of one phase from its bits:
// which nodes are active (connected), each active node's active
// predecessors, and which active nodes are outputs (no active
// successors). Isolated nodes are dropped, mirroring NSGA-Net's decoding,
// which is what lets the search trade FLOPs against accuracy.
type phaseTopology struct {
	n      int
	active []bool
	preds  [][]int
	outs   []int
	skip   bool
}

// topology computes the phase's active structure.
func (g *Genome) topology(phase int) phaseTopology {
	n := g.NodesPerPhase
	bits := g.Phases[phase]
	t := phaseTopology{n: n, active: make([]bool, n), preds: make([][]int, n), skip: bits[len(bits)-1] == 1}
	hasSucc := make([]bool, n)
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if connBit(bits, i, j) == 1 {
				t.active[i], t.active[j] = true, true
				t.preds[j] = append(t.preds[j], i)
				hasSucc[i] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		if t.active[i] && !hasSucc[i] {
			t.outs = append(t.outs, i)
		}
	}
	return t
}

// ActiveNodes returns how many nodes of the phase participate in the
// decoded network (0 means the phase decodes to its single fallback node).
func (g *Genome) ActiveNodes(phase int) int { return g.topology(phase).activeNodes() }

// activeNodes counts the nodes that take part in the phase.
func (t phaseTopology) activeNodes() int {
	n := 0
	for _, a := range t.active {
		if a {
			n++
		}
	}
	return n
}
