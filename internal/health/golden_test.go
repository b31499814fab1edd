package health

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenBytes pins alerts.jsonl bit for bit: the first two digests
// were recorded before the append log moved into internal/durable, so a
// change here is a change to the on-disk format, not to the test. Each
// case also runs with every check's findings shuffled: the manager
// writes one check's transitions in ID order, so the order the monitors
// report in never reaches the file.
func TestGoldenBytes(t *testing.T) {
	nan := func(m string) finding {
		return finding{Monitor: "divergence", Key: m, Severity: SevCritical,
			Message: fmt.Sprintf("model %s: NaN/Inf in training signal", m)}
	}
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
		{"four models fire in one check, escalate, then resolve together", [][]finding{
			{nan("m3"), nan("m1"), {Monitor: "queue", Severity: SevWarning, Message: "saturated", Value: 4, Threshold: 3},
				nan("m4"), {Monitor: "devices", Key: "capacity", Severity: SevWarning, Message: "degraded", Value: 0.75, Threshold: 0.5},
				nan("m2")},
			{{Monitor: "devices", Key: "capacity", Severity: SevCritical, Message: "lost", Value: 0.25, Threshold: 0.5},
				{Monitor: "calibration", Severity: SevCritical, Message: "off", Value: 9, Threshold: 5},
				{Monitor: "backpressure", Key: "file", Severity: SevCritical, Message: "failing", Value: 1}},
			{},
		}, "885d1572e0607b5f7682ddd5924685a19ab5b51e802fcb20a8dce39941f29bb4"},
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		for run := 0; run < 30; run++ {
			m, _ := testManager(t, 1) // deterministic clock: 1 ns per apply
			path := filepath.Join(t.TempDir(), AlertsFile)
			if err := m.openFile(path); err != nil {
				t.Fatal(err)
			}
			for _, findings := range c.apply {
				findings = append([]finding(nil), findings...)
				if run > 0 {
					rng.Shuffle(len(findings), func(i, j int) { findings[i], findings[j] = findings[j], findings[i] })
				}
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
				t.Fatalf("%s, order %d: sha256 %s, want %s\n%s", c.name, run, got, c.want, data)
			}
		}
	}
}
