package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestGoldenBytes pins job.json bit for bit (and its file mode): the
// digest was recorded before the replace-writer moved into
// internal/durable, so a change here is a change to the on-disk format,
// not to the test.
func TestGoldenBytes(t *testing.T) {
	at := time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC)
	cases := []struct {
		name string
		m    Manifest
		want string
	}{
		{"queued", Manifest{
			Config:  Config{ID: "j1", Beam: "medium", Devices: 1, Population: 6, Offspring: 6, Generations: 3, Epochs: 10, Seed: 42, Priority: 10},
			State:   StateQueued,
			Created: at,
		}, "833e90c5f212eccc5fb69c583dcf36305de61e58bf5326d7999aa09d3ad32b20"},
		{"failed after a resume", Manifest{
			Config:   Config{ID: "j2", Beam: "high", Devices: 2, Seed: 7, Standalone: true},
			State:    StateFailed,
			Error:    "boom <&>",
			Created:  at,
			Started:  at.Add(time.Second),
			Finished: at.Add(time.Minute),
			Resumes:  1,
		}, "3345d7f44381fb2a299c8c66572f9328c88437fae7617227b8d7350337162789"},
	}
	for _, c := range cases {
		dir := t.TempDir()
		// Written twice: the second write replaces the first.
		for i := 0; i < 2; i++ {
			if err := writeManifest(dir, c.m); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, ManifestFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s\n%s", c.name, got, c.want, data)
		}
		if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o600 {
			t.Errorf("%s: mode %v (%v), want 0600", c.name, st.Mode().Perm(), err)
		}
		if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 {
			t.Errorf("%s: directory holds %v, want only %s", c.name, names, ManifestFile)
		}
	}
}
