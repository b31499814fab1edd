package tsdb

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenBytes pins series.a4ts bit for bit: the digests were
// recorded before the block framing moved into internal/durable, so a
// change here is a change to the on-disk format, not to the test.
func TestGoldenBytes(t *testing.T) {
	ts := []int64{1_700_000_000_000, 1_700_000_005_000, 1_700_000_010_000, 1_700_000_015_250}
	cases := []struct {
		name  string
		bytes func(t *testing.T) []byte
		want  string
	}{
		{"header+2 blocks, framed in memory", func(*testing.T) []byte {
			b := headerBytes()
			b = appendBlock(b, "a4nn_train_epochs_total", encodeChunk(ts, []float64{1, 2, 3, 5}))
			return appendBlock(b, `g{job="j1"}`, encodeChunk(ts[:3], []float64{0.5, math.Inf(1), -0.25}))
		}, "8a9639c0ba6288120ac34816efdd6661c24663137950c38b1c890908f4b832f6"},
		{"header+2 blocks, through Open/Append/Close", func(t *testing.T) []byte {
			path := filepath.Join(t.TempDir(), SeriesFile)
			db, err := OpenFile(path, Options{SealSamples: 4})
			if err != nil {
				t.Fatal(err)
			}
			for i, at := range ts {
				db.Append("a4nn_train_epochs_total", at, []float64{1, 2, 3, 5}[i])
			}
			for i, at := range ts[:3] {
				db.Append(`g{job="j1"}`, at, []float64{0.5, math.Inf(1), -0.25}[i])
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}, "8a9639c0ba6288120ac34816efdd6661c24663137950c38b1c890908f4b832f6"},
	}
	for _, c := range cases {
		sum := sha256.Sum256(c.bytes(t))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
