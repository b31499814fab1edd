package a4nn

// Chaos soak: crash the real CLI at randomly chosen seeded crash
// points, relaunch it with -resume until the search completes, and
// assert the crash-consistency contract — every plan fires, the journal
// sequence stays monotone, no model retrains epochs its resume point
// already covers, every store file still decodes, no temp file is left,
// the final Pareto front is byte-identical to a fault-free run with the
// same seed, and the journal folds into that run's telemetry.
//
// Both kinds of trainer are soaked. Surrogate models keep no checkpoint
// file: their journaled epochs are their checkpoint, so the plans that
// crash mid-model there crash at journal appends. Real-training models
// restore their weights from checkpoint files, so the checkpoint-write
// plans run a small real-training search.
//
// `go test` runs a handful of plans; `make chaos-soak` sets
// CHAOS_SOAK_ITERS=20 for the acceptance sweep.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"a4nn/internal/chaos"
)

// soakSearchArgs is the shared search configuration; the reference run
// and every chaos run must match for the fronts to be comparable.
// One device, because the device ID participates in each model's
// training seed and with several devices the task→device assignment is
// a real goroutine race: even two fault-free same-seed runs then
// differ, so byte-identical fronts are only a meaningful contract on a
// single device.
var soakSearchArgs = []string{
	"-beam", "medium", "-population", "6", "-offspring", "6",
	"-generations", "3", "-epochs", "10", "-devices", "1", "-seed", "42",
}

// realSearchArgs is the real-training search the checkpoint-write plans
// crash: a 2+2-model search over an xfelgen dataset (-data is appended).
// Ten epochs of four models write a checkpoint file up to 40 times.
var realSearchArgs = []string{
	"-population", "2", "-offspring", "2", "-generations", "2", "-epochs", "10",
	"-devices", "1", "-seed", "42",
}

// repeatablePoints are visited only for NEW durable work (records and
// checkpoints of models not yet committed), so a crash@N plan makes at
// least N-1 transitions of progress per launch and can stay armed
// across every relaunch. Points that replayed work re-visits (journal
// appends, generation commits) would livelock if re-armed, so those
// plans crash once and relaunch clean.
var repeatablePoints = []string{
	chaos.PointRecordPreRename,
	chaos.PointRecordPostRename,
	chaos.PointCheckpointPreWrite,
	chaos.PointCheckpointPostWrite,
	chaos.PointModelPostRecord,
}

var oneshotPoints = []string{
	chaos.PointGenerationCommit,
	chaos.PointJournalAppend,
}

// soakSearch is a search the soak crashes, with what its fault-free
// run printed and journaled.
type soakSearch struct {
	args   []string
	models int
	front  string
	tel    *Telemetry
}

// newSoakSearch runs args once without chaos for the reference.
func newSoakSearch(t *testing.T, bin string, args []string, models int) *soakSearch {
	t.Helper()
	store := filepath.Join(scratchDir(t, "ref"), "ref")
	out := run(t, bin, append(append([]string{}, args...), "-store", store)...)
	tel, err := LoadTelemetry(store)
	if err != nil {
		t.Fatal(err)
	}
	return &soakSearch{args: args, models: models, front: paretoSection(t, out), tel: tel}
}

func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	bins := buildTools(t, "a4nn", "xfelgen")
	surrogate := newSoakSearch(t, bins["a4nn"], soakSearchArgs, 6+6*2)
	var realSearch *soakSearch // made for the first checkpoint-write plan

	iters := 4
	if s := os.Getenv("CHAOS_SOAK_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("CHAOS_SOAK_ITERS = %q", s)
		}
		iters = n
	}

	rng := rand.New(rand.NewSource(20260808))
	for it := 0; it < iters; it++ {
		// Draw the plan outside the subtest so the sequence only depends
		// on the iteration count.
		var point string
		repeat := rng.Intn(10) < 7
		if repeat {
			point = repeatablePoints[rng.Intn(len(repeatablePoints))]
		} else {
			point = oneshotPoints[rng.Intn(len(oneshotPoints))]
		}
		// The visit count sets the progress per launch (N-1 durable
		// transitions before the crash), so scale it to how often each
		// point fires: checkpoints are written every real epoch (40 a
		// run) and journal lines several times a surrogate epoch (visits
		// 10-39 land inside generation 0's models), records once per
		// model (18), generation commits 3 times.
		visit := 2 + rng.Intn(4)
		search := surrogate
		switch point {
		case chaos.PointCheckpointPreWrite, chaos.PointCheckpointPostWrite:
			if realSearch == nil {
				ds := filepath.Join(scratchDir(t, "data"), "ds.gob")
				run(t, bins["xfelgen"], "-beam", "medium", "-count", "40", "-size", "16", "-seed", "3", "-out", ds)
				realSearch = newSoakSearch(t, bins["a4nn"], append([]string{"-data", ds}, realSearchArgs...), 2+2)
			}
			search = realSearch
			fallthrough
		case chaos.PointJournalAppend:
			visit = 10 + rng.Intn(30)
		case chaos.PointGenerationCommit:
			visit = 2 + rng.Intn(2)
		}
		plan := fmt.Sprintf("crash=%s@%d;seed=%d", point, visit, rng.Int63())
		t.Run(fmt.Sprintf("plan%02d", it), func(t *testing.T) {
			soakOnePlan(t, bins["a4nn"], plan, repeat, search)
		})
	}
}

// soakOnePlan crashes and relaunches one store of search to completion
// and checks the crash-consistency contract.
func soakOnePlan(t *testing.T, bin, plan string, rearm bool, search *soakSearch) {
	t.Helper()
	store := filepath.Join(scratchDir(t, "plan"), "runs")
	base := append(append([]string{}, search.args...), "-store", store)

	crashes := 0
	var out string
	for attempt := 0; ; attempt++ {
		if attempt > 60 {
			t.Fatalf("plan %q: search did not complete after %d relaunches", plan, attempt)
		}
		args := append([]string{}, base...)
		if attempt > 0 {
			args = append(args, "-resume")
		}
		if attempt == 0 || rearm {
			args = append(args, "-chaos", plan)
		}
		b, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			out = string(b)
			break
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ExitCode() == chaos.ExitCode {
			crashes++
			continue
		}
		t.Fatalf("plan %q attempt %d: unexpected failure: %v\n%s", plan, attempt, err, b)
	}
	t.Logf("plan %q: %d crash(es)", plan, crashes)
	if crashes == 0 {
		t.Errorf("plan %q never fired: its crash point is not visited", plan)
	}
	refFront, refTel := search.front, search.tel

	// 1. The final Pareto front is byte-identical to the fault-free run.
	if got := paretoSection(t, out); got != refFront {
		t.Errorf("plan %q (%d crashes): Pareto front diverged from the fault-free run\ngot:\n%s\nwant:\n%s",
			plan, crashes, got, refFront)
	}

	// 2. Journal sequence numbers stay strictly monotone across every
	// crash and relaunch, and 3. no model retrains an epoch its resume
	// point already covers.
	events, err := ReadEvents(filepath.Join(store, EventsFile))
	if err != nil {
		t.Fatalf("plan %q: read journal: %v", plan, err)
	}
	var lastSeq uint64
	resumedAt := make(map[string]int)
	for _, e := range events {
		if e.Seq <= lastSeq {
			t.Fatalf("plan %q: journal seq %d after %d is not monotone", plan, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Type {
		case "model_resume":
			resumedAt[e.Model] = e.Epoch
		case "epoch":
			if k, ok := resumedAt[e.Model]; ok && e.Epoch <= k {
				t.Errorf("plan %q: model %s trained epoch %d twice — its resume point already covered epoch %d",
					plan, e.Model, e.Epoch, k)
			}
		}
	}

	// 4. Every record decodes, no checkpoint outlives its record, and no
	// temp file of a killed write outlives the resume that followed it.
	cstore, err := OpenCommons(store)
	if err != nil {
		t.Fatalf("plan %q: reopen store: %v", plan, err)
	}
	ids, err := cstore.List()
	if err != nil {
		t.Fatalf("plan %q: list records: %v", plan, err)
	}
	if want := search.models; len(ids) != want {
		t.Errorf("plan %q: %d records in store, want %d", plan, len(ids), want)
	}
	for _, id := range ids {
		if _, err := cstore.GetRecord(id); err != nil {
			t.Errorf("plan %q: record %s does not decode: %v", plan, id, err)
		}
	}
	if cps, err := cstore.Checkpoints(); err != nil {
		t.Errorf("plan %q: list checkpoints: %v", plan, err)
	} else if len(cps) != 0 {
		t.Errorf("plan %q: %d checkpoint(s) left after a completed run: %v", plan, len(cps), cps)
	}
	filepath.WalkDir(store, func(path string, d os.DirEntry, err error) error {
		if err == nil && strings.Contains(d.Name(), ".tmp-") {
			t.Errorf("plan %q: temp file %s left after a completed run", plan, path)
		}
		return nil
	})

	// 5. The journal of every launch folds into the fault-free run's
	// telemetry, and its totals into what the last launch printed.
	tel, err := LoadTelemetry(store)
	if err != nil {
		t.Fatalf("plan %q: load telemetry: %v", plan, err)
	}
	if !slices.Equal(tel.Generations, refTel.Generations) {
		t.Errorf("plan %q: telemetry diverged from the fault-free run\ngot:  %+v\nwant: %+v",
			plan, tel.Generations, refTel.Generations)
	}
	if tel.EpochsTrained != refTel.EpochsTrained || tel.EpochsSaved != refTel.EpochsSaved || tel.Terminated != refTel.Terminated {
		t.Errorf("plan %q: telemetry totals %d trained / %d saved / %d terminated, fault-free %d / %d / %d",
			plan, tel.EpochsTrained, tel.EpochsSaved, tel.Terminated,
			refTel.EpochsTrained, refTel.EpochsSaved, refTel.Terminated)
	}
	var trained, budget, terminated int
	if _, err := fmt.Sscanf(outputLine(t, out, "training epochs:"), "training epochs: %d / %d", &trained, &budget); err != nil {
		t.Fatalf("plan %q: parse epochs line: %v", plan, err)
	}
	if _, err := fmt.Sscanf(outputLine(t, out, "terminated early:"), "terminated early: %d", &terminated); err != nil {
		t.Fatalf("plan %q: parse terminations line: %v", plan, err)
	}
	if tel.EpochsTrained != trained || tel.EpochsSaved != budget-trained || tel.Terminated != terminated {
		t.Errorf("plan %q: telemetry totals %d trained / %d saved / %d terminated, stdout %d / %d / %d",
			plan, tel.EpochsTrained, tel.EpochsSaved, tel.Terminated, trained, budget-trained, terminated)
	}
}

// outputLine returns the line of a run's stdout that starts with prefix.
func outputLine(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("no %q line in output:\n%s", prefix, out)
	return ""
}

// paretoSection extracts the Pareto table from a run's stdout so two
// runs over different store paths compare equal.
func paretoSection(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "Pareto-optimal models")
	if i < 0 {
		t.Fatalf("no Pareto section in output:\n%s", out)
	}
	s := out[i:]
	if j := strings.Index(s, "\nrecord trails written"); j >= 0 {
		s = s[:j]
	}
	return s
}
