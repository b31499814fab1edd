package nn

import "fmt"

// SGD is stochastic gradient descent with optional classical momentum,
// the optimizer every real training run uses.
type SGD struct {
	LR       float64
	Momentum float64

	velocity map[*Param][]float64
}

// NewSGD creates an SGD optimizer; momentum 0 disables the velocity term.
func NewSGD(lr, momentum float64) (*SGD, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("nn: SGD learning rate must be positive, got %v", lr)
	}
	if momentum < 0 || momentum >= 1 {
		return nil, fmt.Errorf("nn: SGD momentum %v outside [0,1)", momentum)
	}
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*Param][]float64)}, nil
}

// Step applies one update to every parameter and zeroes the gradients.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		v := p.Value.Data()
		g := p.Grad.Data()
		if s.Momentum > 0 {
			vel, ok := s.velocity[p]
			if !ok {
				vel = make([]float64, len(v))
				s.velocity[p] = vel
			}
			for i := range v {
				vel[i] = s.Momentum*vel[i] + g[i]
				v[i] -= s.LR * vel[i]
			}
		} else {
			for i := range v {
				v[i] -= s.LR * g[i]
			}
		}
		p.ZeroGrad()
	}
}
