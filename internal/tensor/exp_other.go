//go:build !amd64

package tensor

// expGroups is the vector kernel's stub on hosts without one: ExpInto
// never calls it, since expVector stays false.
func expGroups(x []float64) int { return 0 }
