package tensor

// expGroups overwrites x[:n] with Exp for the longest prefix of four-lane
// groups (the last one masked to the 1–3 elements left, if any) whose
// lanes all lie in [-708, 700], and returns n: the FMA sequence of
// math.Exp four lanes at a time (exp_amd64.s). It needs AVX2 and FMA;
// ExpInto calls it only when axpy_amd64.go found both.
//
//go:noescape
func expGroups(x []float64) int
