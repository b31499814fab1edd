//go:build !linux

package main

// fsInfo cannot name filesystems here; an unknown type with no known
// free space keeps the scratch directory off /dev/shm.
func fsInfo(string) (fsType string, availBytes uint64) { return "unknown", 0 }
