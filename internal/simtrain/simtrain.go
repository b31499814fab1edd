// Package simtrain provides a calibrated surrogate trainer: instead of
// running gradient descent, it draws each network's learning curve from
// the paper's own parametric family F(e) = a − b^(c−e) plus noise, with
// parameters that depend on the genome's capacity and the beam
// intensity's signal-to-noise ratio.
//
// This is the same device PENGUIN's authors used to evaluate their engine
// on MENNDL ("their engine's effects were simulated", paper §5): the
// prediction engine, orchestrator, scheduler, and NAS all exercise their
// real code paths, while the 100-network × 25-epoch × 3-beam × 2-mode ×
// 2-pool experiment grid of Figures 6–9 completes in seconds. The beam
// profiles are calibrated so the termination-epoch distributions match
// Figure 8's qualitative shapes (low: late convergence, ~60% terminated;
// medium: early, >70%; high: bimodal, ~55%). internal/core's RealTrainer
// provides the genuine end-to-end path on the same interfaces.
package simtrain

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"a4nn/internal/core"
	"a4nn/internal/genome"
	"a4nn/internal/xfel"
)

// BeamProfile parameterises the surrogate learning-curve distribution for
// one beam intensity.
type BeamProfile struct {
	// Asymptote bounds the achievable validation accuracy a.
	AsymptoteMin, AsymptoteMax float64
	// Start bounds the epoch-1 accuracy; the curve offset c is derived
	// from it as c = ln(a−s₀)/β + 1 so every curve genuinely climbs from
	// near-random accuracy instead of being born saturated.
	StartMin, StartMax float64
	// Rate bounds the learning-rate parameter β (b = e^β).
	RateMin, RateMax float64
	// Noise is the innovation scale of the AR(1) drift added to
	// well-behaved curves. Real learning curves deviate from the ideal
	// parametric family with slow, autocorrelated wander (data-order
	// effects, LR-schedule kinks), and it is exactly that wander that
	// delays the prediction analyzer's convergence — i.i.d. jitter
	// averages out under the least-squares fit and would let everything
	// terminate unrealistically early.
	Noise float64
	// Rho is the AR(1) autocorrelation of the drift (default 0.85 when 0).
	Rho float64
	// FailureRate is the fraction of networks that fail to learn
	// (the paper cites up to 88% in early NAS generations; by Table 2's
	// small search the realised fraction is lower).
	FailureRate float64
	// FailureAsymptote is the accuracy failed networks hover around.
	FailureAsymptote float64
	// HardFraction of networks have near-linear fitness curves that the
	// concave family fits poorly — their extrapolations keep drifting or
	// escape the [0,100] validity bounds, so the analyzer converges late
	// or never, which is what produces the non-terminated share of
	// Figure 8. HardNoise/HardRho set those curves' AR(1) drift;
	// HardRise bounds the rise length in epochs and HardTarget the
	// accuracy the riser heads toward (targets near 100 push the fitted
	// asymptote out of the validity bounds).
	// TailMin/TailMax bound a slow linear creep (accuracy points per
	// epoch) added to well-behaved curves: real fitness keeps inching up
	// relative to the ideal concave family, and that systematic drift is
	// what pushes convergence late on noisy datasets.
	TailMin, TailMax float64
	HardFraction     float64
	HardNoise        float64
	HardRho          float64
	HardRiseMin      float64
	HardRiseMax      float64
	HardTargetMin    float64
	HardTargetMax    float64
}

// ProfileFor returns the calibrated profile of a beam intensity.
func ProfileFor(beam xfel.BeamIntensity) BeamProfile {
	switch beam {
	case xfel.LowBeam:
		// Noisy data: slow, drifty curves → predictions converge late and
		// for barely more than half the models (Fig. 8: mean e_t > 18,
		// >60% terminated; Fig. 7: only 13.3% of epochs saved).
		return BeamProfile{
			AsymptoteMin: 85, AsymptoteMax: 99.8,
			StartMin: 42, StartMax: 52,
			RateMin: 0.035, RateMax: 0.07,
			Noise:       0.70,
			FailureRate: 0.06, FailureAsymptote: 55,
			TailMin: 0.10, TailMax: 0.22,
			HardFraction: 0.50, HardNoise: 0.35, HardRho: 0.5,
			HardRiseMin: 26, HardRiseMax: 36,
			HardTargetMin: 101, HardTargetMax: 106,
		}
	case xfel.MediumBeam:
		// Cleaner, faster curves → early convergence for most models
		// (Fig. 8: mean e_t < 12.5, >70% terminated; 34.1% epochs saved).
		return BeamProfile{
			AsymptoteMin: 92, AsymptoteMax: 99.9,
			StartMin: 50, StartMax: 62,
			RateMin: 0.13, RateMax: 0.28,
			Noise:       0.28,
			FailureRate: 0.08, FailureAsymptote: 58,
			TailMin: 0.03, TailMax: 0.10,
			HardFraction: 0.47, HardNoise: 0.5, HardRho: 0.6,
			HardRiseMin: 22, HardRiseMax: 30,
			HardTargetMin: 102, HardTargetMax: 107,
		}
	default: // high
		// Clean data: most curves saturate very fast, but a large
		// minority keep climbing — Figure 8's inverted bell with only
		// ~55% terminated at a mean e_t ≈ 10 (30.5% epochs saved).
		return BeamProfile{
			AsymptoteMin: 95, AsymptoteMax: 100,
			StartMin: 55, StartMax: 70,
			RateMin: 0.4, RateMax: 0.8,
			Noise:       0.1,
			FailureRate: 0.05, FailureAsymptote: 60,
			TailMin: 0, TailMax: 0.03,
			HardFraction: 0.72, HardNoise: 0.3, HardRho: 0.6,
			HardRiseMin: 22, HardRiseMax: 30,
			HardTargetMin: 102, HardTargetMax: 108,
		}
	}
}

// Validate reports the first problem with the profile, or nil.
func (p BeamProfile) Validate() error {
	if p.AsymptoteMin <= 0 || p.AsymptoteMax < p.AsymptoteMin {
		return fmt.Errorf("simtrain: bad asymptote range [%v,%v]", p.AsymptoteMin, p.AsymptoteMax)
	}
	if p.StartMin <= 0 || p.StartMax < p.StartMin || p.StartMax >= p.AsymptoteMin {
		return fmt.Errorf("simtrain: bad start range [%v,%v] for asymptote ≥ %v", p.StartMin, p.StartMax, p.AsymptoteMin)
	}
	if p.RateMin <= 0 || p.RateMax < p.RateMin {
		return fmt.Errorf("simtrain: bad rate range [%v,%v]", p.RateMin, p.RateMax)
	}
	if p.Noise < 0 || p.HardNoise < 0 {
		return fmt.Errorf("simtrain: negative noise")
	}
	if p.FailureRate < 0 || p.FailureRate > 1 || p.HardFraction < 0 || p.HardFraction > 1 {
		return fmt.Errorf("simtrain: fractions outside [0,1]")
	}
	if p.HardFraction > 0 {
		if p.HardRiseMin <= 0 || p.HardRiseMax < p.HardRiseMin {
			return fmt.Errorf("simtrain: bad hard rise range [%v,%v]", p.HardRiseMin, p.HardRiseMax)
		}
		if p.HardTargetMin <= p.StartMax || p.HardTargetMax < p.HardTargetMin {
			return fmt.Errorf("simtrain: bad hard target range [%v,%v]", p.HardTargetMin, p.HardTargetMax)
		}
	}
	return nil
}

// Trainer is the surrogate implementation of core.Trainer.
type Trainer struct {
	profile BeamProfile
	decode  genome.DecodeConfig
	samples int
}

// PaperTrainSamples is the paper's training-split size (§3.2).
const PaperTrainSamples = 63508

// New builds a surrogate trainer. samples sets the pretend training-set
// size used by the simulated epoch-cost model; 0 selects the paper's
// 63,508 images so wall-time numbers land at paper scale (hours).
func New(profile BeamProfile, decode genome.DecodeConfig, samples int) (*Trainer, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	if samples == 0 {
		samples = PaperTrainSamples
	}
	if samples < 1 {
		return nil, fmt.Errorf("simtrain: samples must be ≥ 1, got %d", samples)
	}
	if err := decode.Validate(); err != nil {
		return nil, err
	}
	return &Trainer{profile: profile, decode: decode, samples: samples}, nil
}

// ForBeam is a convenience constructor with the beam's calibrated profile
// and the paper-scale decode configuration (128×128 inputs), so FLOPs and
// simulated wall times land in the paper's ranges.
func ForBeam(beam xfel.BeamIntensity) (*Trainer, error) {
	return New(ProfileFor(beam), genome.PaperDecodeConfig(), 0)
}

// TrainSamples implements core.Trainer.
func (t *Trainer) TrainSamples() int { return t.samples }

// NewModel implements core.Trainer: curve parameters are drawn
// deterministically from (genome, seed), with the genome's capacity
// (active nodes, FLOPs) nudging the achievable accuracy — bigger
// architectures tend to learn more, which is what gives the NAS a real
// accuracy/FLOPs trade-off to explore. The network itself is never built:
// a surrogate model needs its cost and description, which genome.Cost
// reads off the shapes.
func (t *Trainer) NewModel(g *genome.Genome, seed int64) (core.Trainable, error) {
	cost, err := genome.Cost(g, t.decode)
	if err != nil {
		return nil, err
	}

	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", g.String(), seed)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))

	active := 0
	for p := range g.Phases {
		active += g.ActiveNodes(p)
	}
	maxActive := len(g.Phases) * g.NodesPerPhase
	capacity := float64(active) / float64(maxActive) // 0..1

	p := t.profile
	rho := p.Rho
	if rho == 0 {
		rho = 0.85
	}
	m := &model{
		trainer: t,
		flops:   cost.FLOPs,
		params:  cost.Params,
		desc:    cost.Describe(),
		rng:     rng,
		noise:   p.Noise,
		rho:     rho,
	}
	switch {
	case rng.Float64() < p.FailureRate:
		// Failed-to-learn network: flat, low, noisy.
		m.a = p.FailureAsymptote + rng.NormFloat64()*4
		m.beta = 0.05 + rng.Float64()*0.05
		m.c = rng.Float64() * 2
		m.noise = p.Noise * 2
	default:
		quality := 0.45*capacity + 0.55*rng.Float64()
		m.a = p.AsymptoteMin + quality*(p.AsymptoteMax-p.AsymptoteMin)
		m.beta = p.RateMin + rng.Float64()*(p.RateMax-p.RateMin)
		start := p.StartMin + rng.Float64()*(p.StartMax-p.StartMin)
		gap := m.a - start
		if gap < 5 {
			gap = 5
		}
		// Solve a − e^{β(c−1)} = start for c so the curve starts at
		// `start` and climbs toward a.
		m.c = math.Log(gap)/m.beta + 1
		m.tail = p.TailMin + rng.Float64()*(p.TailMax-p.TailMin)
		// Keep the creeping curve inside [0,100] over the full budget.
		if lim := 99.9 - m.tail*24; m.a > lim {
			m.a = lim
		}
		if rng.Float64() < p.HardFraction {
			// Near-linear riser heading toward ~100%: the concave fit
			// either keeps drifting or extrapolates past the validity
			// bound, delaying or blocking convergence.
			m.linear = true
			m.start = start
			m.riseLen = p.HardRiseMin + rng.Float64()*(p.HardRiseMax-p.HardRiseMin)
			m.a = p.HardTargetMin + rng.Float64()*(p.HardTargetMax-p.HardTargetMin)
			m.noise = p.HardNoise
			m.rho = p.HardRho
		}
	}
	if m.a > 100 {
		m.a = 100
	}
	return m, nil
}

// model is one surrogate network.
type model struct {
	trainer    *Trainer
	a, beta, c float64
	linear     bool    // near-linear riser instead of the concave family
	start      float64 // riser start accuracy
	riseLen    float64 // riser length in epochs
	tail       float64 // linear creep added to concave curves
	noise      float64 // AR(1) innovation scale
	rho        float64 // AR(1) autocorrelation
	ar         float64 // current drift state
	rng        *rand.Rand
	epoch      int
	lastVal    float64
	flops      int64
	params     int
	desc       string
}

// TrainEpoch implements core.Trainable.
func (m *model) TrainEpoch() (core.EpochMetrics, error) {
	m.epoch++
	e := float64(m.epoch)
	m.ar = m.rho*m.ar + m.rng.NormFloat64()*m.noise
	var val float64
	if m.linear {
		frac := (e - 1) / m.riseLen
		if frac > 1 {
			frac = 1
		}
		val = m.start + (m.a-m.start)*frac + m.ar
	} else {
		val = m.a - math.Exp(m.beta*(m.c-e)) + m.tail*(e-1) + m.ar
	}
	if val < 0 {
		val = 0
	}
	if val > 100 {
		val = 100
	}
	m.lastVal = val
	train := val + 1.5 + m.rng.NormFloat64()*0.3 // mild overfit gap
	if train > 100 {
		train = 100
	}
	loss := math.Max(0.01, (100-val)/50+m.rng.NormFloat64()*0.02)
	return core.EpochMetrics{TrainLoss: loss, TrainAccuracy: train, ValAccuracy: val}, nil
}

// SaveState implements core.Trainable: the surrogate's state is its curve.
func (m *model) SaveState() ([]byte, error) {
	return json.Marshal(map[string]float64{
		"a": m.a, "beta": m.beta, "c": m.c,
		"epoch": float64(m.epoch), "last_val": m.lastVal,
	})
}

// FLOPs implements core.Trainable.
func (m *model) FLOPs() int64 { return m.flops }

// NumParams implements core.Trainable.
func (m *model) NumParams() int { return m.params }

// Describe implements core.Trainable.
func (m *model) Describe() string { return m.desc }
