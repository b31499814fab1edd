//go:build linux

package main

import (
	"fmt"
	"syscall"
)

// fsNames maps statfs magic numbers to the names mount(8) prints.
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
}

// fsInfo names the filesystem holding path and its free space.
func fsInfo(path string) (fsType string, availBytes uint64) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown", 0
	}
	name, ok := fsNames[int64(st.Type)]
	if !ok {
		name = fmt.Sprintf("0x%x", int64(st.Type))
	}
	return name, st.Bavail * uint64(st.Bsize)
}
