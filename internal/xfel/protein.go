// Package xfel synthesises X-ray Free Electron Laser protein diffraction
// datasets, substituting for the paper's spsim/Xmipp pipeline (paper §3.1).
//
// Two 3-D point-atom "conformations" of the same synthetic protein — one
// with a rotated mobile domain, mimicking the EF2 conformations 1n0u and
// 1n0v — are exposed to a simulated beam: the protein is randomly oriented,
// its far-field diffraction intensity |F(q)|² is sampled on a square
// detector, and photon counts are drawn from a Poisson distribution whose
// rate scales with the beam intensity. Intensity is therefore a direct
// noise proxy: the paper's low/medium/high beams (1e14/1e15/1e16
// photons/µm²/pulse) map to low/medium/high signal-to-noise images, which
// is exactly the dataset property the evaluation depends on.
package xfel

import (
	"fmt"
	"math"
	"math/rand"
)

// Atom is a point scatterer: a 3-D position (in ångström-like arbitrary
// units) and a scattering weight (effective electron count).
type Atom struct {
	X, Y, Z float64
	Weight  float64
}

// Conformation identifies which protein shape produced a pattern; it is
// the classification label.
type Conformation int

// The two conformations of the synthetic protein, standing in for PDB
// entries 1n0u (A) and 1n0v (B).
const (
	ConfA Conformation = 0
	ConfB Conformation = 1
)

// String implements fmt.Stringer.
func (c Conformation) String() string {
	switch c {
	case ConfA:
		return "conf-A"
	case ConfB:
		return "conf-B"
	default:
		return fmt.Sprintf("conf-%d", int(c))
	}
}

// Protein is a rigid point-atom model.
type Protein struct {
	Atoms []Atom
}

// ProteinParams controls the synthetic protein generator.
type ProteinParams struct {
	// CoreAtoms and DomainAtoms set the number of atoms in the fixed core
	// and in the mobile domain.
	CoreAtoms, DomainAtoms int
	// CoreRadius and DomainRadius are the Gaussian cluster radii.
	CoreRadius, DomainRadius float64
	// DomainOffset displaces the mobile domain from the core along +x.
	DomainOffset float64
	// HingeAngle is the rotation (radians) applied to the mobile domain to
	// produce conformation B from conformation A; conformation k is
	// rotated by k·HingeAngle.
	HingeAngle float64
	// NumConformations is the number of protein classes (default 2, the
	// paper's 1n0u/1n0v pair; larger values extend the task to
	// multi-class classification, the §6 generalisation).
	NumConformations int
}

// DefaultProteinParams mirrors a two-domain protein whose conformations
// differ by a ~35° domain rotation about the hinge.
func DefaultProteinParams() ProteinParams {
	return ProteinParams{
		CoreAtoms:        40,
		DomainAtoms:      24,
		CoreRadius:       3.0,
		DomainRadius:     2.0,
		DomainOffset:     6.0,
		HingeAngle:       35 * math.Pi / 180,
		NumConformations: 2,
	}
}

// Validate reports the first problem with the parameters, or nil.
func (p ProteinParams) Validate() error {
	if p.CoreAtoms <= 0 || p.DomainAtoms <= 0 {
		return fmt.Errorf("xfel: atom counts must be positive, got core=%d domain=%d", p.CoreAtoms, p.DomainAtoms)
	}
	if p.CoreRadius <= 0 || p.DomainRadius <= 0 {
		return fmt.Errorf("xfel: cluster radii must be positive, got %v and %v", p.CoreRadius, p.DomainRadius)
	}
	if p.NumConformations < 2 {
		return fmt.Errorf("xfel: need ≥ 2 conformations, got %d", p.NumConformations)
	}
	return nil
}

// GenerateConformationSet builds p.NumConformations conformations:
// conformation k's mobile domain is rotated by k·HingeAngle about the
// hinge. All conformations share identical atoms, so only the domain
// orientation separates the classes.
func GenerateConformationSet(rng *rand.Rand, p ProteinParams) ([]*Protein, error) {
	if p.NumConformations == 0 {
		p.NumConformations = 2
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	core := make([]Atom, p.CoreAtoms)
	for i := range core {
		core[i] = Atom{
			X:      rng.NormFloat64() * p.CoreRadius,
			Y:      rng.NormFloat64() * p.CoreRadius,
			Z:      rng.NormFloat64() * p.CoreRadius,
			Weight: 0.8 + 0.4*rng.Float64(),
		}
	}
	domain := make([]Atom, p.DomainAtoms)
	for i := range domain {
		domain[i] = Atom{
			X:      p.DomainOffset + rng.NormFloat64()*p.DomainRadius,
			Y:      rng.NormFloat64() * p.DomainRadius,
			Z:      rng.NormFloat64() * p.DomainRadius,
			Weight: 0.8 + 0.4*rng.Float64(),
		}
	}

	hx := p.DomainOffset / 2
	confs := make([]*Protein, p.NumConformations)
	for k := range confs {
		angle := float64(k) * p.HingeAngle
		sin, cos := math.Sin(angle), math.Cos(angle)
		rotated := make([]Atom, len(domain))
		for i, at := range domain {
			dx, dy := at.X-hx, at.Y
			rotated[i] = Atom{
				X:      hx + cos*dx - sin*dy,
				Y:      sin*dx + cos*dy,
				Z:      at.Z,
				Weight: at.Weight,
			}
		}
		confs[k] = &Protein{Atoms: append(append([]Atom(nil), core...), rotated...)}
	}
	return confs, nil
}

// rotation is a 3×3 rotation matrix.
type rotation [3][3]float64

// randomRotation draws a rotation uniformly from SO(3) via a random unit
// quaternion (Shoemake's method).
func randomRotation(rng *rand.Rand) rotation {
	u1, u2, u3 := rng.Float64(), rng.Float64(), rng.Float64()
	s1 := math.Sqrt(1 - u1)
	s2 := math.Sqrt(u1)
	w := s1 * math.Sin(2*math.Pi*u2)
	x := s1 * math.Cos(2*math.Pi*u2)
	y := s2 * math.Sin(2*math.Pi*u3)
	z := s2 * math.Cos(2*math.Pi*u3)
	return rotation{
		{1 - 2*(y*y+z*z), 2 * (x*y - w*z), 2 * (x*z + w*y)},
		{2 * (x*y + w*z), 1 - 2*(x*x+z*z), 2 * (y*z - w*x)},
		{2 * (x*z - w*y), 2 * (y*z + w*x), 1 - 2*(x*x+y*y)},
	}
}

// sampleOrientation draws a beam orientation. spread=1 is uniform SO(3);
// smaller values bound the azimuth to ±spread·π and the two tilts to
// ±spread·π/2, shrinking the orientation manifold so small datasets stay
// learnable (see SimulatorParams.OrientationSpread).
func sampleOrientation(rng *rand.Rand, spread float64) rotation {
	if spread >= 1 {
		return randomRotation(rng)
	}
	az := (rng.Float64()*2 - 1) * math.Pi * spread
	tx := (rng.Float64()*2 - 1) * math.Pi / 2 * spread
	ty := (rng.Float64()*2 - 1) * math.Pi / 2 * spread
	return rotZ(az).mul(rotX(tx)).mul(rotY(ty))
}

// rotZ, rotX, rotY build elementary rotations.
func rotZ(a float64) rotation {
	s, c := math.Sin(a), math.Cos(a)
	return rotation{{c, -s, 0}, {s, c, 0}, {0, 0, 1}}
}

func rotX(a float64) rotation {
	s, c := math.Sin(a), math.Cos(a)
	return rotation{{1, 0, 0}, {0, c, -s}, {0, s, c}}
}

func rotY(a float64) rotation {
	s, c := math.Sin(a), math.Cos(a)
	return rotation{{c, 0, s}, {0, 1, 0}, {-s, 0, c}}
}

// mul composes two rotations (r then o applied to column vectors: r·o).
func (r rotation) mul(o rotation) rotation {
	var out rotation
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				out[i][j] += r[i][k] * o[k][j]
			}
		}
	}
	return out
}

// apply rotates atom positions, leaving weights unchanged.
func (r rotation) apply(atoms []Atom) []Atom {
	out := make([]Atom, len(atoms))
	for i, a := range atoms {
		out[i] = Atom{
			X:      r[0][0]*a.X + r[0][1]*a.Y + r[0][2]*a.Z,
			Y:      r[1][0]*a.X + r[1][1]*a.Y + r[1][2]*a.Z,
			Z:      r[2][0]*a.X + r[2][1]*a.Y + r[2][2]*a.Z,
			Weight: a.Weight,
		}
	}
	return out
}
