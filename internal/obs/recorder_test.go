package obs

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// buildTestRecorder wires a recorder the way a job does: journal hook,
// registry, tracer, manifest — and feeds it a recognisable history.
func buildTestRecorder(t *testing.T, dir string) (*Recorder, *Journal) {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("a4nn_events_emitted_total").Add(5)
	tracer := NewTracer(16)
	ctx, span := StartSpan(WithTracer(context.Background(), tracer), "generation")
	_ = ctx
	span.End()

	manifest := filepath.Join(dir, "job.json")
	if err := os.WriteFile(manifest, []byte(`{"config":{"id":"pm-test"},"state":"running"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(RecorderConfig{
		Dir:          dir,
		Registry:     reg,
		Tracer:       tracer,
		ManifestPath: manifest,
	})
	j := NewJournal(32)
	j.AttachRecorder(r)
	j.Emit(Event{Type: EventRunStart})
	j.Emit(Event{Type: EventAlert, AlertID: "slo:turnaround", Severity: "critical", Msg: "budget exhausted"})
	j.Emit(Event{Type: EventAlert, AlertID: "sched:straggler", Severity: "warning", Msg: "device 2 slow"})
	j.Emit(Event{Type: EventAlertResolved, AlertID: "sched:straggler"})
	j.Emit(Event{Type: EventGenerationStart, Gen: 1})
	r.SampleMetrics()
	return r, j
}

func TestRecorderBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, j := buildTestRecorder(t, dir)

	path, err := r.Dump("test crash")
	if err != nil {
		t.Fatal(err)
	}
	pm, err := DecodeBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Meta.Reason != "test crash" || pm.Meta.Version != BundleVersion || pm.Meta.PID != os.Getpid() {
		t.Fatalf("bad meta: %+v", pm.Meta)
	}

	events := pm.Events()
	if len(events) != 5 {
		t.Fatalf("ring events = %d, want 5", len(events))
	}
	// Crash consistency: the ring tail is the journal tail.
	if last := events[len(events)-1]; last.Seq != j.LastSeq() || last.Type != EventGenerationStart {
		t.Fatalf("ring tail %+v does not match journal seq %d", last, j.LastSeq())
	}
	if r.LastSeq() != j.LastSeq() {
		t.Fatalf("LastSeq = %d, journal seq = %d", r.LastSeq(), j.LastSeq())
	}

	// Only the unresolved alert is active at dump time.
	alerts := pm.Alerts()
	if len(alerts) != 1 || alerts[0].AlertID != "slo:turnaround" {
		t.Fatalf("active alerts = %+v, want the one unresolved slo alert", alerts)
	}

	if spans := pm.Spans(); len(spans) != 1 || spans[0].Name != "generation" {
		t.Fatalf("spans = %+v", spans)
	}
	if hist := pm.MetricsHistory(); len(hist) != 1 || hist[0].Snap.Counters["a4nn_events_emitted_total"] != 5 {
		t.Fatalf("metrics history = %+v", hist)
	}
	if heap := pm.Heap(); heap.HeapSys == 0 || heap.Goroutines == 0 {
		t.Fatalf("heap stats missing: %+v", heap)
	}
	if string(pm.Sections[SectionManifest]) != `{"config":{"id":"pm-test"},"state":"running"}` {
		t.Fatalf("manifest section = %q", pm.Sections[SectionManifest])
	}
	if len(pm.Sections[SectionGoroutines]) == 0 {
		t.Fatal("goroutine dump missing")
	}

	// FindBundles sees the dump.
	found, err := FindBundles(dir)
	if err != nil || len(found) != 1 || found[0] != path {
		t.Fatalf("FindBundles = %v, %v", found, err)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(RecorderConfig{})
	const n = recorderEvents + 6
	for i := 1; i <= n; i++ {
		r.Record(Event{Seq: uint64(i), Type: EventEpoch})
	}
	if r.LastSeq() != n {
		t.Fatalf("LastSeq = %d, want %d", r.LastSeq(), n)
	}
	dir := t.TempDir()
	r.cfg.Dir = dir
	path, err := r.Dump("eviction")
	if err != nil {
		t.Fatal(err)
	}
	pm, err := DecodeBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	events := pm.Events()
	if len(events) != recorderEvents {
		t.Fatalf("ring kept %d events, want %d", len(events), recorderEvents)
	}
	for i, e := range events {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("events[%d].Seq = %d, want %d (oldest evicted first)", i, e.Seq, want)
		}
	}
}

func TestDecodeBundleRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	r, _ := buildTestRecorder(t, dir)
	path, err := r.Dump("corruption source")
	if err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The decoder tolerates missing trailing sections (a crash can cut
	// the dump between frames), so a truncation landing exactly on a
	// section boundary past the meta section decodes cleanly. Every
	// other truncation — mid-frame — must error, never panic.
	boundaries := map[int]bool{}
	metaEnd := 0
	for off := 8; off < len(valid); {
		nameLen := int(uint32(valid[off]) | uint32(valid[off+1])<<8 | uint32(valid[off+2])<<16 | uint32(valid[off+3])<<24)
		plOff := off + 4 + nameLen
		payloadLen := int(uint32(valid[plOff]) | uint32(valid[plOff+1])<<8 | uint32(valid[plOff+2])<<16 | uint32(valid[plOff+3])<<24)
		off = plOff + 4 + payloadLen + 4
		if metaEnd == 0 {
			metaEnd = off // the meta section is written first
		}
		boundaries[off] = true
	}
	for n := 0; n < len(valid); n++ {
		_, err := DecodeBundleBytes(valid[:n])
		if wantClean := boundaries[n] && n >= metaEnd; wantClean != (err == nil) {
			t.Fatalf("truncation to %d bytes: err=%v, boundary=%v", n, err, wantClean)
		}
	}
	// A single flipped payload byte must fail its section CRC. Flip one
	// inside the meta payload (magic 4 + version 4 + nameLen 4 + name 4
	// + payloadLen 4 = offset 20 starts the meta JSON).
	flipped := append([]byte(nil), valid...)
	flipped[24] ^= 0x01
	if _, err := DecodeBundleBytes(flipped); err == nil {
		t.Fatal("bit flip decoded cleanly")
	}
	// Wrong magic and unsupported version.
	bad := append([]byte(nil), valid...)
	bad[0] = 'X'
	if _, err := DecodeBundleBytes(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	future := append([]byte(nil), valid...)
	future[4] = 0xFF
	if _, err := DecodeBundleBytes(future); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := DecodeBundleBytes(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestArmDisarmAndDumpArmed(t *testing.T) {
	base := ArmedRecorders()
	d1, d2 := t.TempDir(), t.TempDir()
	r1 := NewRecorder(RecorderConfig{Dir: d1})
	r2 := NewRecorder(RecorderConfig{Dir: d2})
	r1.Record(Event{Seq: 1, Type: EventRunStart})
	r1.Arm()
	r1.Arm() // idempotent
	r2.Arm()
	if got := ArmedRecorders(); got != base+2 {
		t.Fatalf("ArmedRecorders = %d, want %d", got, base+2)
	}
	r2.Close() // Close disarms
	if got := ArmedRecorders(); got != base+1 {
		t.Fatalf("ArmedRecorders after close = %d, want %d", got, base+1)
	}

	DumpArmed("drill")
	r1.Disarm()
	if got := ArmedRecorders(); got != base {
		t.Fatalf("ArmedRecorders after disarm = %d, want %d", got, base)
	}
	b1, _ := FindBundles(d1)
	if len(b1) != 1 {
		t.Fatalf("armed recorder wrote %d bundles, want 1", len(b1))
	}
	pm, err := DecodeBundle(b1[0])
	if err != nil {
		t.Fatal(err)
	}
	if pm.Meta.Reason != "drill" || len(pm.Events()) != 1 {
		t.Fatalf("bundle = %+v", pm.Meta)
	}
	if b2, _ := FindBundles(d2); len(b2) != 0 {
		t.Fatalf("closed recorder dumped anyway: %v", b2)
	}
}

func FuzzDecodeBundle(f *testing.F) {
	dir := f.TempDir()
	reg := NewRegistry()
	reg.Counter("c").Inc()
	r := NewRecorder(RecorderConfig{Dir: dir, Registry: reg})
	r.Record(Event{Seq: 1, Type: EventRunStart})
	path, err := r.Dump("fuzz seed")
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	f.Add([]byte("A4PM"))
	f.Add([]byte{})
	torn := append([]byte(nil), valid...)
	torn[len(torn)/2] ^= 0xFF
	f.Add(torn)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The contract: arbitrary bytes either decode into a bundle
		// whose every section passed its CRC, or error — never panic.
		pm, err := DecodeBundleBytes(data)
		if err == nil {
			if pm == nil || pm.Meta.Version == 0 {
				t.Fatalf("clean decode without meta: %+v", pm)
			}
			// Typed accessors must also hold up on whatever decoded.
			pm.Events()
			pm.Alerts()
			pm.Spans()
			pm.MetricsHistory()
			pm.Heap()
		}
	})
}

// BenchmarkJournalEmit is one epoch event through a journal with its
// events file attached: the line encoded into the journal's buffer and
// appended in one write. The bench gate holds it at 0 allocs/op at
// steady state: the ring has wrapped before the timer starts.
func BenchmarkJournalEmit(b *testing.B) {
	j := NewJournal(0)
	e := Event{Type: EventEpoch, Gen: 3, Model: "m-g03-i07", Epoch: 7, ValAcc: 61.73828125,
		Loss: 0.7652343750000001, SimSeconds: 6.512}
	for i := 0; i < DefaultJournalCapacity; i++ {
		j.Emit(e)
	}
	if err := j.OpenFile(filepath.Join(b.TempDir(), EventsFile)); err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Emit(e)
	}
}

// BenchmarkDisabledRecorder measures the per-event cost a journal pays
// for the flight-recorder hook when no recorder is attached: one
// atomic load and a nil-receiver branch. The bench gate holds this at
// 0 allocs/op.
func BenchmarkDisabledRecorder(b *testing.B) {
	j := NewJournal(64)
	e := Event{Type: EventEpoch, Model: "g1-m1", Epoch: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Emit(e)
	}
}

// LastSeq returns the highest sequence number in the ring (0 when
// empty). Nil-safe.
func (r *Recorder) LastSeq() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.events.end == 0 {
		return 0
	}
	return r.events.at(r.events.end - 1).Seq
}
