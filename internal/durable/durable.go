// Package durable holds a4nn's on-disk crash protocols, one copy each:
// replace a whole file (AtomicWrite, and RemoveTemps for what a kill
// leaves of it), frame named CRC-checked sections (AppendSection,
// NextSection), and append to a log whose torn tail is repaired on open
// and skipped on read (Log, ReadJSONL, DecodeJSONL), and encode the JSON
// those files hold in encoding/json's exact bytes without reflection
// (JSON). DESIGN.md §8 tabulates which file uses which and what each
// survives.
package durable

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"a4nn/internal/chaos"
)

// tempInfix separates a target's base name from the random decimal
// suffix os.CreateTemp appends: "<base>.tmp-<digits>".
const tempInfix = ".tmp-"

// sweep keeps RemoveTemps from deleting a temp file this process is
// about to rename: AtomicWrite holds it shared while its temp exists
// (a job's manifest can be rewritten while the same job's resume
// preflight sweeps the directory).
var sweep sync.RWMutex

// AtomicWrite replaces path with data: a temp file in path's directory
// is written, chmodded to perm, fsynced when fsync is set, closed and
// renamed over path, so a kill at any instant leaves the previous file
// or the new one. With fsync the directory is fsynced after the rename
// too, so the new file survives a power loss: job.json asks for that.
// Without it a power loss can still lose the new contents, which the
// writers of a checkpoint per epoch accept.
//
// pre and post name the chaos points straddling the rename — the two
// instants whose crash semantics differ (old file still visible vs new
// file committed but unreported); "" visits none. Every error path
// removes the temp file; a kill leaves it for RemoveTemps.
func AtomicWrite(path string, data []byte, perm os.FileMode, fsync bool, pre, post string) error {
	dir, base := filepath.Split(path)
	sweep.RLock()
	defer sweep.RUnlock()
	tmp, err := os.CreateTemp(dir, base+tempInfix+"*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(perm)
	}
	if err == nil && fsync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = chaos.Point(pre)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if fsync {
		if err := syncDir(dir); err != nil {
			return err
		}
	}
	return chaos.Point(post)
}

// syncDir fsyncs a directory, making the entries renamed into it
// durable.
func syncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// RemoveTemps deletes the temp files that killed AtomicWrite calls left
// anywhere under root (a store keeps records, checkpoints, one directory
// per model and its run's sinks at different depths) and returns how
// many it removed. A missing root holds none.
func RemoveTemps(root string) (removed int, err error) {
	sweep.Lock()
	defer sweep.Unlock()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() || !isTemp(d.Name()) {
			return err
		}
		if err = os.Remove(path); err == nil {
			removed++
		}
		return err
	})
	if errors.Is(err, fs.ErrNotExist) {
		err = nil
	}
	return removed, err
}

// isTemp reports whether name is "<base>.tmp-<digits>".
func isTemp(name string) bool {
	i := strings.LastIndex(name, tempInfix)
	if i <= 0 {
		return false
	}
	digits := name[i+len(tempInfix):]
	return digits != "" && strings.Trim(digits, "0123456789") == ""
}
