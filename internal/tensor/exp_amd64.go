package tensor

// expGroups overwrites x[:n] with Exp for the longest prefix of whole
// four-lane groups whose lanes all lie in [expLo, expHi], and returns n:
// the FMA sequence of math.Exp four lanes at a time (exp_amd64.s). It
// needs AVX2 and FMA; ExpInto calls it only when axpy_amd64.go found both.
//
//go:noescape
func expGroups(x []float64) int
