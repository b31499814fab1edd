package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"a4nn/internal/tensor"
)

// TestBatchNormReLUMatchesReference holds the fused layer to the
// three-sweep batch norm followed by a separate ReLU, bit for bit: the
// output, dx, dγ and dβ, and the running statistics, over training steps
// whose last batch is ragged and an evaluation pass after them. The channel
// counts cover every remainder of the four-channel reductions; the
// variants add a constant channel (zero variance, whose pre-activation is
// exactly −0) and NaN, ±Inf, ±0 and denormal inputs and gradients around
// the ReLU's boundary. Any NaN matches any NaN: which payload survives
// NaN + NaN is the compiler's operand order, not the layer's.
func TestBatchNormReLUMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	specials := []float64{negZero, 0, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	requireSame := func(label string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d elements, want %d", label, len(got), len(want))
		}
		for i := range want {
			if !same(got[i], want[i]) {
				t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	const h, w = 3, 5
	for _, c := range []int{1, 3, 4, 5, 8} {
		for _, variant := range []string{"random", "constant", "special"} {
			rng := rand.New(rand.NewSource(int64(10*c + len(variant))))
			fused, err := NewBatchNormReLU(c)
			if err != nil {
				t.Fatal(err)
			}
			ref, relu := newRefBatchNorm(c), NewReLU()
			for ch := 0; ch < c; ch++ {
				fused.Gamma.Value.Data()[ch] = 0.5 + rng.Float64()
				fused.Beta.Value.Data()[ch] = rng.NormFloat64() / 2
			}
			if variant == "constant" {
				// x̂ = 0 on channel 0, so γ·x̂+β = −0 + −0.
				fused.Gamma.Value.Data()[0], fused.Beta.Value.Data()[0] = -1, negZero
			}
			copy(ref.Gamma.Value.Data(), fused.Gamma.Value.Data())
			copy(ref.Beta.Value.Data(), fused.Beta.Value.Data())
			sprinkle := func(x *tensor.Tensor, chans int) {
				n := x.Dim(0)
				for k := 0; k < 6; k++ {
					i, ch, s := rng.Intn(n), c-1-rng.Intn(chans), rng.Intn(h*w)
					x.Data()[(i*c+ch)*h*w+s] = specials[rng.Intn(len(specials))]
				}
			}
			for step, n := range []int{6, 6, 5} {
				label := fmt.Sprintf("c=%d %s step %d", c, variant, step)
				x := tensor.Randn(rng, 0.3, 1.5, n, c, h, w)
				grad := tensor.Randn(rng, 0, 1, n, c, h, w)
				switch variant {
				case "constant":
					for i := 0; i < n; i++ {
						for s := 0; s < h*w; s++ {
							x.Data()[i*c*h*w+s] = 1.5
						}
					}
				case "special":
					sprinkle(x, 1) // the last channel only: the others stay finite
					sprinkle(grad, c)
				}
				yF, err := fused.Forward(x, true)
				if err != nil {
					t.Fatal(err)
				}
				z, err := ref.Forward(x, true)
				if err != nil {
					t.Fatal(err)
				}
				yR, err := relu.Forward(z, true)
				if err != nil {
					t.Fatal(err)
				}
				requireSame(label+" y", yF.Data(), yR.Data())
				dxF, err := fused.Backward(grad)
				if err != nil {
					t.Fatal(err)
				}
				dz, err := relu.Backward(grad)
				if err != nil {
					t.Fatal(err)
				}
				dxR, err := ref.Backward(dz)
				if err != nil {
					t.Fatal(err)
				}
				requireSame(label+" dx", dxF.Data(), dxR.Data())
				requireSame(label+" dγ", fused.Gamma.Grad.Data(), ref.Gamma.Grad.Data())
				requireSame(label+" dβ", fused.Beta.Grad.Data(), ref.Beta.Grad.Data())
				requireSame(label+" running mean", fused.RunningMean.Data(), ref.RunningMean.Data())
				requireSame(label+" running var", fused.RunningVar.Data(), ref.RunningVar.Data())
			}
			x := tensor.Randn(rng, 0.3, 1.5, 4, c, h, w)
			if variant == "special" {
				sprinkle(x, c)
			}
			yF, err := fused.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			z, err := ref.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			yR, err := relu.Forward(z, false)
			if err != nil {
				t.Fatal(err)
			}
			requireSame(fmt.Sprintf("c=%d %s eval y", c, variant), yF.Data(), yR.Data())
		}
	}
}
