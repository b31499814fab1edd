//go:build race

package a4nn

func init() { raceBuild = true }
