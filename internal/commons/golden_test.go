package commons

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

// TestGoldenBytes pins the store's files bit for bit: the digests were
// recorded before the replace-writer moved into internal/durable, so a
// change here is a change to the on-disk format, not to the test. The
// checkpoint digests were re-recorded once, when the checkpoint file
// became a log of frames.
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
	const envelope = "bd51dd6891a19be5dc41e85a4e6dd4791a8973f0397cc86cfd18fceadb92419b"
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
		{"CheckpointLog file", func() []byte {
			data, _ := writeLog(t, s, epochCheckpoints("m-g02-i05", 3, 0))
			return data
		}, "80bf78a804a9e413c9437882dd80c968c81fd396bd9d5faa42f51eda8d93b863"},
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
