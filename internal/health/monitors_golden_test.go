package health

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"a4nn/internal/obs"
)

// goldenRun drives one fully configured engine over a seeded stream of
// every event type (NaN/Inf values, moving drop and file-error
// counters, dyadic queue waits, ingested runtime samples) on a stepped
// clock, hashing the Report after every step, the alert events the
// engine journals, and alerts.jsonl at the end. kinds collects every
// finding kind that fired or escalated.
func goldenRun(t *testing.T, seed int64, kinds map[string]bool) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	cfg.DivergenceWindow = 2
	cfg.PlateauWindow = 3
	cfg.CalibrationWindow = 3
	cfg.ResolveAfter = 2
	cfg.SampleInterval = 3 * time.Second
	cfg.DiskPath = "/golden"
	query := map[string]float64{}
	if seed%2 == 1 {
		cfg.SLO = &SLO{QueueWaitP99: 2, JobTurnaround: 200 * time.Second, EventDropRate: 0.02,
			FastWindow: 6 * time.Second, SlowWindow: time.Minute}
		cfg.Regression = &RegressionConfig{
			Baseline: Baseline{Series: map[string]BaselineSeries{
				"wait_p99": {Mean: 10},
				"gflops":   {Mean: 5, Direction: "lower-worse"},
				"zero":     {Mean: 0},
			}},
			Query: func(series string, _, _ int64) (float64, int) {
				return query[series], 3 + int(query[series])%5
			},
			EvalInterval: 2 * time.Second,
		}
	}
	o := obs.NewObserver()
	e, err := New(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	stepClock(e, time.Second)
	diskRng := rand.New(rand.NewSource(seed + 1000))
	e.disk.statfs = func(string) (diskUsage, error) {
		if diskRng.Intn(6) == 0 {
			return diskUsage{}, errors.New("statfs: input/output error")
		}
		return diskUsage{totalBytes: 1000, availBytes: uint64(diskRng.Intn(300))}, nil
	}
	path := filepath.Join(t.TempDir(), AlertsFile)
	if err := e.OpenAlertsFile(path); err != nil {
		t.Fatal(err)
	}
	reg := o.Registry()
	hist := reg.Histogram("a4nn_sched_queue_wait_sim_seconds", obs.SecondsBuckets)
	dropped := reg.Counter("a4nn_events_dropped_total")
	emitted := reg.Counter("a4nn_events_emitted_total")
	fileErrs := reg.Counter("a4nn_events_file_errors_total")

	h := sha256.New()
	var seq uint64
	record := func() {
		fmt.Fprintf(h, "%+v\n", e.Report())
		for _, ev := range o.Journal().Since(seq) {
			seq = ev.Seq
			fmt.Fprintf(h, "%s %s %s %s %q %d\n", ev.Type, ev.AlertID, ev.Monitor, ev.Severity, ev.Msg, ev.Count)
			if ev.Type == obs.EventAlert {
				kinds[findingKind(ev.Monitor, ev.AlertID, ev.Severity, ev.Msg)] = true
			}
		}
	}

	runtimeSample := func() obs.Event {
		return obs.Event{Type: obs.EventRuntimeSample,
			Goroutines: 100 + rng.Intn(2400), HeapBytes: uint64(1+rng.Intn(6)) << 24,
			GCPauseSec: float64(rng.Intn(100)) / 1000,
			RSSBytes:   uint64(rng.Intn(10000)) << 20, FDs: rng.Intn(1200)}
	}
	e.Observe(runtimeSample()) // adopted first: no host reading ever enters
	record()

	models := []string{"m0", "m1", "m2", "m3", "m4"}
	acc := map[string]float64{}
	loss := map[string]float64{}
	wait := func() float64 { return float64(rng.Intn(64)) / 8 }
	var badWaits int // per mille of waits over the SLO's 2s bound, this block
	for step := 0; step < 400; step++ {
		if step%40 == 0 {
			badWaits = []int{0, 100, 500}[rng.Intn(3)]
		}
		for i := rng.Intn(3); i > 0; i-- {
			if rng.Intn(1000) < badWaits {
				hist.Observe(2 + wait())
			} else {
				hist.Observe(float64(rng.Intn(17)) / 8)
			}
		}
		if rng.Intn(10) == 0 {
			dropped.Add(rng.Intn(4))
		}
		if rng.Intn(25) == 0 {
			fileErrs.Inc()
		}
		emitted.Add(rng.Intn(6))
		if step%40 == 39 {
			for _, s := range []string{"wait_p99", "gflops", "zero"} {
				query[s] = float64(rng.Intn(16))
			}
		}

		m := models[rng.Intn(len(models))]
		var ev obs.Event
		switch r := rng.Intn(100); {
		case r < 40:
			ev = obs.Event{Type: obs.EventEpoch, Model: m}
			switch rng.Intn(20) {
			case 0:
				ev.Loss, ev.ValAcc = math.NaN(), acc[m]
			case 1:
				ev.Loss, ev.ValAcc = loss[m], math.Inf(1)
			case 2:
				ev.ValAcc = math.NaN()
			default:
				switch rng.Intn(3) {
				case 0:
					loss[m] = 0 // a surrogate reports no loss
				default:
					loss[m] = math.Max(loss[m], 0.5) * (0.8 + 0.5*rng.Float64())
				}
				switch rng.Intn(10) {
				case 0, 1, 2:
				case 3:
					acc[m] -= 25
				default:
					acc[m] = math.Max(acc[m], 40) + 10*rng.Float64() - 4
				}
				ev.Loss, ev.ValAcc = loss[m], acc[m]
			}
		case r < 46:
			ev = obs.Event{Type: obs.EventModelDone, Model: m}
			delete(acc, m)
			delete(loss, m)
		case r < 54:
			ev = obs.Event{Type: obs.EventPredictTerminate, Model: m,
				Predicted: 50 + 20*rng.Float64(), Actual: 50 + 8*rng.Float64()}
			if rng.Intn(8) == 0 {
				ev.Predicted = math.Inf(-1)
			}
		case r < 58:
			ev = obs.Event{Type: obs.EventRunStart, Devices: 4 + rng.Intn(4)}
		case r < 64:
			ev = obs.Event{Type: obs.EventGenerationStart, Gen: step, Devices: rng.Intn(8)}
		case r < 72:
			ev = obs.Event{Type: obs.EventGenerationEnd, Gen: step, Devices: rng.Intn(8),
				Tasks: rng.Intn(4), MeanQueueWaitSeconds: wait()}
		case r < 76:
			ev = obs.Event{Type: obs.EventStraggler, Device: rng.Intn(4)}
		case r < 81:
			reasons := []string{"stale", "temp", "lost", "checksum"}
			ev = obs.Event{Type: obs.EventRecovery, Model: m, Reason: reasons[rng.Intn(4)], Count: rng.Intn(3)}
		case r < 83:
			ev = obs.Event{Type: obs.EventModelResume, Model: m, Epoch: rng.Intn(9)}
		case r < 88:
			ev = runtimeSample()
		case r < 90:
			ev = obs.Event{Type: obs.EventAlert, AlertID: "divergence/m0", Monitor: "divergence"}
		case r < 91 && step > 300:
			ev = obs.Event{Type: obs.EventRunEnd}
		case r < 94:
			types := []string{obs.EventTaskDispatch, obs.EventTaskRetry, obs.EventTaskFault,
				obs.EventPredictConverge, obs.EventParetoUpdate}
			ev = obs.Event{Type: types[rng.Intn(len(types))], Model: m, Device: rng.Intn(4)}
		}
		if ev.Type == "" {
			e.Check()
		} else {
			e.Observe(ev)
		}
		record()
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	record()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(data)
	return digest(h)
}

func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// findingKind names the kind of finding an alert event reports: its
// monitor, its key with model and series names folded to "*", its
// severity, and for divergence which of the three signals tripped.
func findingKind(monitor, id, severity, msg string) string {
	key := strings.TrimPrefix(strings.TrimPrefix(id, monitor), "/")
	switch monitor {
	case "divergence":
		switch {
		case strings.Contains(msg, "NaN/Inf"):
			key = "*nan"
		case strings.Contains(msg, "loss rising"):
			key = "*loss"
		default:
			key = "*accuracy"
		}
	case "plateau", "regression":
		key = "*"
	}
	return monitor + "/" + key + ":" + severity
}

// goldenKinds is every finding a monitor can report, by findingKind:
// each severity of each key of each monitor.
var goldenKinds = []string{
	"divergence/*nan:critical", "divergence/*loss:critical", "divergence/*accuracy:critical",
	"plateau/*:info",
	"calibration/:warning",
	"devices/capacity:warning", "devices/capacity:critical", "devices/stragglers:warning",
	"queue/:warning",
	"backpressure/drops:warning", "backpressure/file:critical",
	"runtime/goroutines:warning", "runtime/heap:warning", "runtime/gc:warning",
	"runtime/rss:warning", "runtime/rss:critical", "runtime/fds:warning", "runtime/fds:critical",
	"recovery/damage:warning",
	"disk/stat:warning", "disk/space:warning", "disk/space:critical",
	"slo/queue_wait:warning", "slo/queue_wait:critical",
	"slo/event_drop_rate:warning", "slo/event_drop_rate:critical",
	"slo/job_turnaround:warning", "slo/job_turnaround:critical",
	"regression/*:warning",
}

// TestMonitorsGolden pins what the monitors make of a run: for each
// seed, the Report after every step (each monitor's status and detail
// line, the active alerts), every alert event journaled and the
// alerts.jsonl bytes. The digests were recorded before the monitors
// became rows of one table over one fold of the journal, so a change
// here is a change in behaviour. Every kind of finding fires on some
// seed.
func TestMonitorsGolden(t *testing.T) {
	want := []string{
		"8db0cf2a32c57582349857cb7f11693b4276e7fa187eba7fb38f58789b9b84e0",
		"ff45db78f133821c89f4ac8032a8587d22db6d8bc8da9f2de3dabc54d80bdc92",
		"0173f4f3c47b05dc4259dd665e7ba6490039098c2a3b2a7ae58cfb8fa7c9c055",
		"fd94a38cff9dbe6beaf69413273df9cef2516762d7fb1619ae959c77ea033b02",
		"b484a0421968d4e1346ef7630e676697a8abc9acca6c4cef9e969b2d262f773a",
		"307d560afcf43c9627f423eaeb77bd6648903bf0d6b8bdff918a5e63ce37686b",
		"8cdcfcad5e3a27357b107a626ce1822c5ca388736e520b9751d8ea6773735a89",
		"5e436dd441e37b2d152afc660126de5778efa2c16bad165b3272c2652041d280",
		"573870df01ab1ad84241725881531074a355deaaa20de4481dbcdb39d26b0ebd",
		"b3191b6d380304b2888a75f778916274ce3219334d54803bee4a6f74d3de7833",
		"7589b039e50d62e6c707103c4d9b247172ccefe812fa22a3941f140e48a8615b",
		"3fc1512f22065b55801a1a04d51018f4539f67cfcd69edfb24d2a24fbbb85f8e",
		"2c61b537153baf0e0d6d6ba4d99be3ec6d41b20fe93d05733c2f24bb63f69752",
		"261969f2eecf213e995bdbc031ad3a66c7a2f70ae91faf56a42646be71a1da51",
		"cc8f40f3bc2d3899ac88029074985d033a79481c148b0d1fbaa09031264b227c",
		"7a7d857eb1d8dde8de202cf5390a234795319625068b9ef9f499be27f339289e",
		"40dc613b20cff8d7d6fe2d4ce35abd3ab15f40ba4cfcdf58c2ff4ea9d7aeb481",
		"443a8ab2379d608d76851687dfa5aea00ddb684c69fdefd9aa2768f24aa24647",
		"2b2907622f56af076a9fb07806d595350ef937c0ae8c9d190883b180b1a154ce",
		"5b82138d693c0c74860528e22e569a315a980389332ae2e3d823463b11bb4736",
		"8e52f6b145b0af94ac660661391eb9e65c6d77a17c8299db09b28d8e62dd2af8",
		"32b130f7b1c4906fb21f33daddbf30fa51046487c4d77d1129d45fd86a4d3fae",
		"1f6bc50ecc1ced975d1576cf20de0df66b6e2ff7acfae595154bc874a98ba90d",
		"d7093c70b1c43d10d90d201828b8f8b5a54f440bdfe856e2bb2a9994a7424d55",
	}
	kinds := map[string]bool{}
	for seed, w := range want {
		if got := goldenRun(t, int64(seed), kinds); got != w {
			t.Errorf("seed %d: digest %s, want %s", seed, got, w)
		}
	}
	var missing []string
	for _, k := range goldenKinds {
		if !kinds[k] {
			missing = append(missing, k)
		}
	}
	var extra []string
	for k := range kinds {
		if !slices.Contains(goldenKinds, k) {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("finding kinds never fired: %v; fired but not listed: %v", missing, extra)
	}
}
