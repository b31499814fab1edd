package tensor

import (
	"math/rand"
	"testing"
)

func TestKernelCountersCountGEMMWork(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 0, 1, 4, 6)
	bT := Randn(rng, 0, 1, 5, 6) // for MatMulTransB: (4,6)·(5,6)ᵀ
	b := Randn(rng, 0, 1, 6, 5)
	dst := New(4, 5)

	EnableKernelCounters(true)
	defer EnableKernelCounters(false)
	ResetKernelCounters()

	if err := MatMulInto(a, b, dst); err != nil {
		t.Fatal(err)
	}
	if err := MatMulTransBInto(a, bT, dst); err != nil {
		t.Fatal(err)
	}
	calls, flops := KernelCounters()
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	// Both products are 4×6 · 6×5: 2·m·n·k FLOPs each.
	if want := int64(2 * 2 * 4 * 5 * 6); flops != want {
		t.Fatalf("flops = %d, want %d", flops, want)
	}

	ResetKernelCounters()
	if c, f := KernelCounters(); c != 0 || f != 0 {
		t.Fatalf("after reset: calls=%d flops=%d, want 0,0", c, f)
	}
}

func TestKernelCountersDisabledDoNotCount(t *testing.T) {
	EnableKernelCounters(false)
	ResetKernelCounters()
	rng := rand.New(rand.NewSource(2))
	a := Randn(rng, 0, 1, 3, 3)
	b := Randn(rng, 0, 1, 3, 3)
	dst := New(3, 3)
	if err := MatMulInto(a, b, dst); err != nil {
		t.Fatal(err)
	}
	if c, f := KernelCounters(); c != 0 || f != 0 {
		t.Fatalf("disabled counters moved: calls=%d flops=%d", c, f)
	}
}
