package xfel

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
)

// Pattern is one recorded diffraction image: normalised pixel values in
// [0, ~1], the conformation label, and the beam that produced it.
type Pattern struct {
	Pixels []float64 // row-major Size×Size
	Size   int
	Label  Conformation
	Beam   BeamIntensity
}

// ASCII renders the pattern as text with a 10-level intensity ramp, for
// terminal previews.
func (p *Pattern) ASCII() string {
	ramp := []byte(" .:-=+*#%@")
	var sb strings.Builder
	for y := 0; y < p.Size; y++ {
		for x := 0; x < p.Size; x++ {
			v := p.Pixels[y*p.Size+x]
			i := int(v * float64(len(ramp)-1))
			if i < 0 {
				i = 0
			}
			if i >= len(ramp) {
				i = len(ramp) - 1
			}
			sb.WriteByte(ramp[i])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SimulatorParams configures pattern synthesis.
type SimulatorParams struct {
	// Size is the detector edge length in pixels (patterns are Size×Size).
	Size int
	// QMax is the maximum scattering-vector magnitude at the detector
	// edge; it sets the resolution of the recorded pattern.
	QMax float64
	// OrientationSpread scales the random beam orientations: 1 samples
	// uniformly from SO(3) (the paper's full Xmipp protocol, which needs
	// ~64k images to learn), 0 fixes the orientation, and intermediate
	// values draw bounded azimuth/tilt angles. Laptop-scale datasets of a
	// few hundred images are learnable around 0.15–0.3.
	OrientationSpread float64
	// Protein configures the conformations.
	Protein ProteinParams
}

// DefaultSimulatorParams returns a laptop-scale configuration: 32×32
// detectors with enough q-range that the two conformations are separable
// at high beam intensity but ambiguous under low-beam Poisson noise.
func DefaultSimulatorParams() SimulatorParams {
	return SimulatorParams{Size: 32, QMax: 1.8, OrientationSpread: 0.2, Protein: DefaultProteinParams()}
}

// Validate reports the first problem with the parameters, or nil.
func (p SimulatorParams) Validate() error {
	if p.Size < 4 {
		return fmt.Errorf("xfel: detector size must be ≥ 4, got %d", p.Size)
	}
	if p.QMax <= 0 {
		return fmt.Errorf("xfel: QMax must be positive, got %v", p.QMax)
	}
	if p.OrientationSpread < 0 || p.OrientationSpread > 1 {
		return fmt.Errorf("xfel: OrientationSpread %v outside [0,1]", p.OrientationSpread)
	}
	return p.Protein.Validate()
}

// Simulator generates diffraction patterns for the conformations of one
// synthetic protein (two by default, the paper's pair). It is safe for
// concurrent use once constructed.
type Simulator struct {
	params SimulatorParams
	confs  []*Protein
}

// NewSimulator builds the protein conformations deterministically from
// seed and returns a simulator.
func NewSimulator(seed int64, params SimulatorParams) (*Simulator, error) {
	if params.Protein.NumConformations == 0 {
		params.Protein.NumConformations = 2
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	confs, err := GenerateConformationSet(rng, params.Protein)
	if err != nil {
		return nil, err
	}
	return &Simulator{params: params, confs: confs}, nil
}

// Params returns the simulator's configuration.
func (s *Simulator) Params() SimulatorParams { return s.params }

// Conformation returns the protein model for a label.
func (s *Simulator) Conformation(c Conformation) (*Protein, error) {
	if int(c) < 0 || int(c) >= len(s.confs) {
		return nil, fmt.Errorf("xfel: unknown conformation %d", int(c))
	}
	return s.confs[int(c)], nil
}

// intensityField computes the noiseless diffraction intensity |F(q)|² of
// the atoms on the detector grid. q spans [−QMax, QMax]² with a flat
// Ewald-sphere approximation (q_z = 0), the standard small-angle limit.
func (s *Simulator) intensityField(atoms []Atom) []float64 {
	n := s.params.Size
	out := make([]float64, n*n)
	step := 2 * s.params.QMax / float64(n-1)
	for py := 0; py < n; py++ {
		qy := -s.params.QMax + float64(py)*step
		for px := 0; px < n; px++ {
			qx := -s.params.QMax + float64(px)*step
			var re, im float64
			for _, a := range atoms {
				phase := qx*a.X + qy*a.Y
				sin, cos := math.Sincos(phase)
				re += a.Weight * cos
				im += a.Weight * sin
			}
			out[py*n+px] = re*re + im*im
		}
	}
	return out
}

// Generate produces one diffraction pattern: the protein in a random
// orientation, the intensity field scaled to the beam's photon budget,
// Poisson-sampled photon counts, and a log(1+k) normalisation that maps
// counts into a stable [0, ~1] range for NN training.
func (s *Simulator) Generate(rng *rand.Rand, label Conformation, beam BeamIntensity) (*Pattern, error) {
	prot, err := s.Conformation(label)
	if err != nil {
		return nil, err
	}
	rot := sampleOrientation(rng, s.params.OrientationSpread)
	field := s.intensityField(rot.apply(prot.Atoms))

	total := 0.0
	for _, v := range field {
		total += v
	}
	if total <= 0 {
		return nil, fmt.Errorf("xfel: degenerate intensity field")
	}
	budget := beam.photonBudget()
	scale := budget / total

	n := s.params.Size
	pix := make([]float64, n*n)
	// Normalisation reference: the expected peak count at this beam, so
	// pixel values stay comparable across orientations and intensities.
	maxLambda := 0.0
	for _, v := range field {
		if l := v * scale; l > maxLambda {
			maxLambda = l
		}
	}
	denom := math.Log1p(maxLambda)
	if denom <= 0 {
		denom = 1
	}
	for i, v := range field {
		counts := poisson(rng, v*scale)
		pix[i] = math.Log1p(counts) / denom
	}
	return &Pattern{Pixels: pix, Size: n, Label: label, Beam: beam}, nil
}

// GenerateBatch produces count patterns with balanced conformation labels
// (paper §3.2 trains on balanced classes), parallelised across
// GOMAXPROCS workers. Results are deterministic for a given seed: each
// pattern draws from its own rng seeded by (seed, index).
func (s *Simulator) GenerateBatch(seed int64, count int, beam BeamIntensity) ([]*Pattern, error) {
	if count <= 0 {
		return nil, fmt.Errorf("xfel: pattern count must be positive, got %d", count)
	}
	out := make([]*Pattern, count)
	errs := make([]error, count)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (count + workers - 1) / workers
	for lo := 0; lo < count; lo += chunk {
		hi := lo + chunk
		if hi > count {
			hi = count
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				rng := rand.New(rand.NewSource(seed + int64(i)*7919))
				label := Conformation(i % len(s.confs))
				p, err := s.Generate(rng, label, beam)
				out[i], errs[i] = p, err
			}
		}(lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
