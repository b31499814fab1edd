package commons

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

// TestGoldenBytes pins the store's files bit for bit: the digests were
// recorded before the replace-writer moved into internal/durable, so a
// change here is a change to the on-disk format, not to the test.
func TestGoldenBytes(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	readBack := func(path string, put error) []byte {
		t.Helper()
		if put != nil {
			t.Fatal(put)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	const envelope = "fcee461eddd33a3b809cdcecadefc1dc1d46ffc924936e81ea6d19bf1fd0d2e1"
	cases := []struct {
		name  string
		bytes func() []byte
		want  string
	}{
		{"EncodeCheckpoint envelope", func() []byte {
			data, err := EncodeCheckpoint(testCheckpoint("m-g01-i03", 4))
			if err != nil {
				t.Fatal(err)
			}
			return data
		}, envelope},
		{"PutCheckpoint file", func() []byte {
			return readBack(s.checkpointPath("m-g01-i03"), s.PutCheckpoint(testCheckpoint("m-g01-i03", 4)))
		}, envelope},
		{"PutSnapshot file", func() []byte {
			return readBack(s.snapshotPath("m", 3), s.PutSnapshot("m", 3, []byte("epoch-3 state\x00\x01")))
		}, "106c9fe8ae7d69936f987ec54d8c56edee320ce10bce3f95f843ac05a078b357"},
	}
	for _, c := range cases {
		sum := sha256.Sum256(c.bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
