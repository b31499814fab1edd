package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"a4nn/internal/durable"
)

// ManifestFile is the per-job state record inside the job's directory.
// It is written atomically (temp + rename) at every lifecycle
// transition, so a killed service always leaves either the previous or
// the next state on disk — never a torn one. A non-terminal manifest
// after a crash is the signal Recover uses to resubmit the job with
// crash-resume.
const ManifestFile = "job.json"

// Manifest is the durable form of a job.
type Manifest struct {
	Config   Config    `json:"config"`
	State    State     `json:"state"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	Resumes  int       `json:"resumes,omitempty"`
}

func manifestOf(st Status) Manifest {
	return Manifest{
		Config:   st.Config,
		State:    st.State,
		Error:    st.Error,
		Created:  st.Created,
		Started:  st.Started,
		Finished: st.Finished,
		Resumes:  st.Resumes,
	}
}

// writeManifest atomically replaces dir/job.json.
func writeManifest(dir string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: marshal manifest: %w", err)
	}
	// The one replace-writer that fsyncs before its rename: losing a
	// lifecycle transition to a power cut would resume the wrong jobs.
	// Mode 0600 is what the manifest has always been published with.
	if err := durable.AtomicWrite(filepath.Join(dir, ManifestFile), append(data, '\n'), 0o600, true, "", ""); err != nil {
		return fmt.Errorf("jobs: write manifest: %w", err)
	}
	return nil
}

// ReadManifest loads one job directory's manifest.
func ReadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("jobs: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("jobs: parse %s: %w", filepath.Join(dir, ManifestFile), err)
	}
	if m.Config.ID == "" {
		m.Config.ID = filepath.Base(dir)
	}
	return m, nil
}

// ReadManifests scans a jobs root and returns every job manifest,
// sorted by creation time. Subdirectories without a manifest are
// skipped (partially created jobs); unreadable manifests are an error.
func ReadManifests(root string) ([]Manifest, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("jobs: %w", err)
	}
	var out []Manifest
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		m, err := ReadManifest(filepath.Join(root, e.Name()))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Created.Equal(out[b].Created) {
			return out[a].Created.Before(out[b].Created)
		}
		return out[a].Config.ID < out[b].Config.ID
	})
	return out, nil
}
