package xfel

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"a4nn/internal/tensor"
)

// BeamIntensity is the XFEL pulse intensity in photons/µm²/pulse. It
// controls the Poisson photon statistics of the recorded patterns and is
// therefore a direct noise proxy: the lower the intensity, the noisier the
// image (paper §3.1, Figure 5).
type BeamIntensity float64

// The three intensities evaluated in the paper.
const (
	LowBeam    BeamIntensity = 1e14
	MediumBeam BeamIntensity = 1e15
	HighBeam   BeamIntensity = 1e16
)

// AllBeams lists the paper's three beam intensities in evaluation order.
var AllBeams = []BeamIntensity{LowBeam, MediumBeam, HighBeam}

// String implements fmt.Stringer.
func (b BeamIntensity) String() string {
	switch b {
	case LowBeam:
		return "low"
	case MediumBeam:
		return "medium"
	case HighBeam:
		return "high"
	default:
		return fmt.Sprintf("%.3g", float64(b))
	}
}

// MarshalJSON implements json.Marshaler: the paper's beams serialise by
// name ("low"/"medium"/"high"), others by value.
func (b BeamIntensity) MarshalJSON() ([]byte, error) {
	return json.Marshal(b.String())
}

// UnmarshalJSON implements json.Unmarshaler, accepting either a beam name
// or a numeric intensity.
func (b *BeamIntensity) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := ParseBeam(s)
		if err != nil {
			// Non-standard name: try the numeric rendering.
			f, ferr := strconv.ParseFloat(s, 64)
			if ferr != nil {
				return err
			}
			*b = BeamIntensity(f)
			return nil
		}
		*b = v
		return nil
	}
	var f float64
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("xfel: cannot decode beam intensity from %s", data)
	}
	*b = BeamIntensity(f)
	return nil
}

// ParseBeam converts the names used on command lines ("low", "medium",
// "high") to an intensity.
func ParseBeam(s string) (BeamIntensity, error) {
	switch s {
	case "low":
		return LowBeam, nil
	case "medium":
		return MediumBeam, nil
	case "high":
		return HighBeam, nil
	}
	return 0, fmt.Errorf("xfel: unknown beam intensity %q (want low, medium, or high)", s)
}

// photonBudget converts a beam intensity to the mean number of photons
// recorded over the whole detector. The mapping is calibrated so the low
// beam yields sparse, heavily quantised patterns and the high beam is
// nearly noise-free, matching Figure 5's qualitative progression.
func (b BeamIntensity) photonBudget() float64 {
	// log10 scale: 1e14 → 2e3 photons, 1e15 → 2e4, 1e16 → 2e5.
	return 2e3 * float64(b) / 1e14
}

// poisson draws from a Poisson distribution with mean lambda. Knuth's
// method is used for small lambda; a Gaussian approximation (clamped at
// zero) for large lambda keeps generation O(1).
func poisson(rng *rand.Rand, lambda float64) float64 {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return math.Round(v)
	}
	l := tensor.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return float64(k)
		}
		k++
	}
}
