package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// environment identifies the host a result was measured on. Two results
// are comparable only when every field matches.
type environment struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	ScratchFS  string `json:"scratch_fs"`
}

func currentEnvironment(scratchFS string) environment {
	return environment{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		ScratchFS:  scratchFS,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// scratch is the directory every store, journal and job root of a run
// lives under. It is removed on every exit path.
type scratch struct {
	Path string `json:"path"`
	FS   string `json:"fs"`
}

const (
	shmDir = "/dev/shm"
	// localScratch is the fallback inside the working directory (the
	// checkout); .gitignore names it.
	localScratch = ".bench_scratch"
	// minShmBytes keeps the benchmark off a small /dev/shm (a container
	// default is 64 MB); one run holds at most a few tens of MB.
	minShmBytes = 512 << 20
)

// newScratch makes the run's scratch directory on tmpfs when there is a
// roomy one, else inside the working directory. The in-situ stack writes
// ~2000 small files per search; on this host's virtual disk the same ten
// searches drifted from 12 s to 30 s over eight consecutive runs and slowed
// the CPU-only workloads that followed, so a disk-backed scratch cannot
// give repeatable numbers. The price is that fsync costs nothing here;
// bench.fsync_calls counts the syncing writes instead.
func newScratch() (scratch, error) {
	parents := []string{localScratch}
	if fs, avail := fsInfo(shmDir); fs == "tmpfs" && avail >= minShmBytes {
		parents = []string{shmDir, localScratch} // local again if /dev/shm is read-only
	}
	var err error
	for _, parent := range parents {
		if err = os.MkdirAll(parent, 0o755); err != nil {
			continue
		}
		var dir string
		if dir, err = os.MkdirTemp(parent, "a4nn-bench-"); err == nil {
			fs, _ := fsInfo(dir)
			return scratch{Path: dir, FS: fs}, nil
		}
	}
	return scratch{}, fmt.Errorf("scratch: %w", err)
}

// remove deletes the scratch directory, and the local parent if this run
// left it empty.
func (s scratch) remove() {
	os.RemoveAll(s.Path)
	if filepath.Dir(s.Path) == localScratch {
		os.Remove(localScratch) // fails, harmlessly, when another run still uses it
	}
}

// dirSize sums the sizes of the regular files under root.
func dirSize(root string) (bytes int64, files int) {
	filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			bytes += info.Size()
			files++
		}
		return nil
	})
	return bytes, files
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
