//go:build race

package predict

func init() { maxWarmAllocs = 9 }
