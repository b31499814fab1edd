//go:build race

package core

func init() { raceBuild = true }
