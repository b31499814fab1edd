package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// refSection is the test's own rendering of the bundle section framing
// (u32 name length, name, u32 payload length, payload, u32 CRC-32 IEEE
// of the payload, little-endian), kept apart from the production
// encoder so the two can be compared.
func refSection(dst []byte, name string, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
	dst = append(dst, name...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

func refBundleHeader() []byte {
	return binary.LittleEndian.AppendUint32([]byte("A4PM"), BundleVersion)
}

var eventTime = regexp.MustCompile(`"t":\d+`)

// journalFile emits events into a journal file that starts with the
// given bytes and returns the file with every timestamp zeroed.
func journalFile(t *testing.T, initial string, events ...Event) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), EventsFile)
	if initial != "" {
		if err := os.WriteFile(path, []byte(initial), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j := NewJournal(0)
	if err := j.OpenFile(path); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		j.Emit(e)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return eventTime.ReplaceAll(data, []byte(`"t":0`))
}

// TestGoldenBytes pins events.jsonl and the postmortem bundle bit for
// bit: the digests were recorded before the append log and the section
// framing moved into internal/durable, so a change here is a change to
// the on-disk format, not to the test.
func TestGoldenBytes(t *testing.T) {
	epoch := Event{Type: EventEpoch, Gen: 2, Task: 3, Model: "m-g02-i03", Epoch: 7, ValAcc: 61.25, Loss: 0.5}
	fixed := refBundleHeader()
	fixed = refSection(fixed, SectionMeta, []byte(`{"version":1,"reason":"golden","t":1,"pid":2,"go_version":"go"}`))
	fixed = refSection(fixed, SectionEvents, []byte(`{"seq":1,"t":1,"type":"run_start"}`+"\n"))
	fixed = refSection(fixed, "future-section", nil)

	cases := []struct {
		name  string
		bytes func() []byte
		want  string
	}{
		{"one journal line", func() []byte {
			return journalFile(t, "", epoch)
		}, "c318f26be3d60c2504be77cd4002a7b497549f18d58b8c149165b2dbeb664fc0"},
		{"journal line after a torn tail", func() []byte {
			return journalFile(t, `{"seq":4,"t":9,"type":"run_start"}`+"\n"+`{"seq":5,"t":9,"ty`, epoch)
		}, "1978a14fb4da30a6980b1d50aa036e9b513ad7adc20c9c6d6c00112c1df8419c"},
		{"bundle of fixed sections", func() []byte {
			pm, err := DecodeBundleBytes(fixed)
			if err != nil {
				t.Fatal(err)
			}
			if pm.Meta.Reason != "golden" || len(pm.Sections) != 3 || len(pm.Events()) != 1 {
				t.Fatalf("decoded %+v with sections %v", pm.Meta, pm.Sections)
			}
			return fixed
		}, "5d156c4e309e5e2ee854a0d4db2a17c86137655c6d98597bb41daae4c3bd51f7"},
	}
	for _, c := range cases {
		sum := sha256.Sum256(c.bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}

// TestGoldenDumpFraming holds the encoder to the same bytes: a dumped
// bundle (whose meta, stack and heap sections differ from run to run)
// must equal its own sections re-framed by refSection in dump order.
func TestGoldenDumpFraming(t *testing.T) {
	r, _ := buildTestRecorder(t, t.TempDir())
	path, err := r.Dump("golden")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := DecodeBundleBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	order := []string{SectionMeta, SectionGoroutines, SectionHeap, SectionEvents, SectionAlerts,
		SectionMetricsHistory, SectionSpans, SectionMetrics, SectionManifest}
	if len(pm.Sections) != len(order) {
		t.Fatalf("dump has %d sections, want %d", len(pm.Sections), len(order))
	}
	want := refBundleHeader()
	for _, name := range order {
		want = refSection(want, name, pm.Sections[name])
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("dumped bundle (%d bytes) is not its sections in reference framing (%d bytes)", len(data), len(want))
	}
}
