package sched

import "fmt"

// SimulateFIFO computes the FIFO dynamic list schedule (Ray-style, the
// paper's policy) for the given task durations on n identical devices and
// returns its accounting. It runs no tasks; use it for what-if analysis
// and the scheduling ablation.
func SimulateFIFO(n int, durations []float64) (*GenerationReport, error) {
	if n < 1 {
		return nil, fmt.Errorf("sched: need ≥ 1 device, got %d", n)
	}
	if len(durations) == 0 {
		return nil, fmt.Errorf("sched: no durations")
	}
	return simulateFIFO(make([]bool, n), durations), nil
}

// SimulateRoundRobin computes a static round-robin schedule (task k on
// device k mod n) for the same durations — the naive alternative the
// FIFO ablation compares against. Static assignment cannot react to
// early-terminated (short) tasks, so its makespan is never better and
// typically worse than FIFO's when durations vary.
func SimulateRoundRobin(n int, durations []float64) (*GenerationReport, error) {
	if n < 1 {
		return nil, fmt.Errorf("sched: need ≥ 1 device, got %d", n)
	}
	if len(durations) == 0 {
		return nil, fmt.Errorf("sched: no durations")
	}
	busy := make([]float64, n)
	for i, d := range durations {
		busy[i%n] += d
	}
	return barrierReport(durations, busy, make([]bool, n)), nil
}
