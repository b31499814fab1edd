package health

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenBytes pins alerts.jsonl bit for bit: the digest was
// recorded before the append log moved into internal/durable, so a
// change here is a change to the on-disk format, not to the test.
func TestGoldenBytes(t *testing.T) {
	cases := []struct {
		name  string
		apply [][]finding
		want  string
	}{
		{"fire and close snapshot", [][]finding{
			{{Monitor: "divergence", Key: "m1", Severity: SevCritical, Message: "diverging", Value: 3.5, Threshold: 3}},
		}, "f772129e7072b30b2eb9505225fc642a065414647ab49dfe7e63f503ca9064eb"},
		{"fire, escalate, resolve, close snapshot", [][]finding{
			{{Monitor: "devices", Key: "capacity", Severity: SevWarning, Message: "degraded", Value: 0.5, Threshold: 0.9},
				{Monitor: "plateau", Severity: SevInfo, Message: "flat"}},
			{{Monitor: "devices", Key: "capacity", Severity: SevCritical, Message: "lost", Value: 0.1, Threshold: 0.9}},
		}, "11a1b25e982d21309d42c7be485508d86aaf940c858659415c0334f16ff14302"},
	}
	for _, c := range cases {
		m, _ := testManager(t, 1) // deterministic clock: 1 ns per apply
		path := filepath.Join(t.TempDir(), AlertsFile)
		if err := m.openFile(path); err != nil {
			t.Fatal(err)
		}
		for _, findings := range c.apply {
			m.apply(findings)
		}
		if err := m.close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s\n%s", c.name, got, c.want, data)
		}
	}
}
