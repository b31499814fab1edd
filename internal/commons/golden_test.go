package commons

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"a4nn/internal/lineage"
)

// goldenRecord is a record as training writes one: its architecture is
// network summary text (a %q-quoted id, " -> " arrows and newlines), it
// carries a retry attempt, a straggler factor and engine parameters, one
// epoch has no prediction, two values need encoding/json's exponent form,
// and its timestamp is zoned.
func goldenRecord() *lineage.Record {
	return &lineage.Record{
		ID:            "m-g03-i07",
		Genome:        "1011-0110-1",
		NodesPerPhase: 4,
		Generation:    3,
		Architecture: "network \"m-g03-i07\" input [1 16 16]\n" +
			"   0 conv3x3(1→4)+bn+relu         [1 16 16] -> [4 16 16]\n" +
			"   1 phase(4 nodes, 0110)         [4 16 16] -> [8 8 8]\n" +
			"   2 dense(512→3)                 [8 8 8] -> [3]\n" +
			"params=1734 flops=97152\n",
		NumParams:  1734,
		FLOPs:      97152,
		Beam:       "high",
		DeviceID:   1,
		Attempt:    2,
		SlowFactor: 1.5,
		Epochs: []lineage.EpochEntry{
			{Epoch: 1, TrainLoss: 5e-7, TrainAccuracy: 41.5, ValAccuracy: 40.25, SimSeconds: 6.5},
			{Epoch: 2, TrainLoss: 0.75, TrainAccuracy: 55, ValAccuracy: 52.125,
				Prediction: 70.5, HasPrediction: true, SimSeconds: 2.5e21},
			{Epoch: 3, TrainLoss: 0.5, TrainAccuracy: 61.75, ValAccuracy: 60,
				Prediction: 71.25, HasPrediction: true, SimSeconds: 1234567},
		},
		Terminated:       true,
		TerminationEpoch: 3,
		FinalFitness:     71.25,
		Engine: &lineage.EngineParams{Family: "pow3", CMin: 3, EPred: 10, N: 3,
			R: 0.5, MinFitness: 0, MaxFitness: 100},
		CreatedAt: time.Date(2026, 3, 14, 15, 9, 26, 535897000, time.FixedZone("IST", 5*3600+1800)),
	}
}

// TestGoldenBytes pins the store's files bit for bit: the digests were
// recorded before the replace-writer moved into internal/durable, so a
// change here is a change to the on-disk format, not to the test. The
// checkpoint digests were re-recorded once, when the checkpoint file
// became a log of frames; that log is retired, and the one frame every
// checkpoint file holds kept its digest. The record digest was recorded from
// encoding/json's MarshalIndent, when every model's record was a file;
// records are now the fold of the journal, and the file is what Export
// writes of the record PutRecord journaled.
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
		{"PutRecord file", func() []byte {
			r := goldenRecord()
			if err := s.PutRecord(r); err != nil {
				t.Fatal(err)
			}
			_, err := s.Export()
			return readBack(filepath.Join(s.Root(), "records", r.ID+".json"), err)
		}, "ad80d996f986308a4edb39b3394af58fd9f9bde4f08fd10425e52a469d210a46"},
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
