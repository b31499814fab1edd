package a4nn

// End-to-end tests of the command-line tools: build the binaries and
// drive the xfelgen → a4nn → a4nn-analyze pipeline through their real
// CLIs, the way a user would.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"a4nn/internal/chaos"
)

// buildTools compiles the cmd binaries once into a shared temp dir.
func buildTools(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	bins := make(map[string]string, len(names))
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}
	return bins
}

// scratchDir returns a fresh directory for a test's store scratch.
// Under CI, A4NN_CI_SCRATCH names a persistent root that gets uploaded
// as a failure artifact (the soak and service-e2e stores hold the
// events.jsonl / alerts.jsonl needed to debug a red run); passing
// tests remove their scratch so only failures leave anything behind.
// Without the variable it is a plain test temp dir.
func scratchDir(t *testing.T, name string) string {
	t.Helper()
	root := os.Getenv("A4NN_CI_SCRATCH")
	if root == "" {
		return t.TempDir()
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	prefix := strings.ReplaceAll(t.Name(), "/", "_") + "-" + name + "-"
	dir, err := os.MkdirTemp(root, prefix)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			os.RemoveAll(dir)
		}
	})
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	bins := buildTools(t, "xfelgen", "a4nn", "a4nn-analyze")
	work := t.TempDir()
	dsPath := filepath.Join(work, "medium.gob")
	store := filepath.Join(work, "runs")

	// 1. Generate a dataset with a preview.
	out := run(t, bins["xfelgen"], "-beam", "medium", "-count", "40", "-size", "16",
		"-seed", "3", "-out", dsPath, "-preview")
	if !strings.Contains(out, "generated 40 medium-beam patterns") {
		t.Fatalf("xfelgen output:\n%s", out)
	}
	if !strings.Contains(out, "conf-A") {
		t.Fatalf("preview missing:\n%s", out)
	}
	if _, err := os.Stat(dsPath); err != nil {
		t.Fatal(err)
	}

	// 2. Surrogate search with a commons store (fast; real training is
	//    covered by the library integration tests).
	out = run(t, bins["a4nn"], "-beam", "medium", "-population", "4", "-offspring", "4",
		"-generations", "2", "-seed", "5", "-store", store)
	for _, want := range []string{"evaluated networks: 8", "Pareto-optimal models", "record trails written"} {
		if !strings.Contains(out, want) {
			t.Fatalf("a4nn output missing %q:\n%s", want, out)
		}
	}

	// 3. Analyze the commons.
	out = run(t, bins["a4nn-analyze"], "-store", store, "list")
	ids := strings.Fields(strings.TrimSpace(out))
	if len(ids) != 8 {
		t.Fatalf("analyze list returned %d ids:\n%s", len(ids), out)
	}
	out = run(t, bins["a4nn-analyze"], "-store", store, "summary")
	if !strings.Contains(out, "records:            8") {
		t.Fatalf("summary output:\n%s", out)
	}
	out = run(t, bins["a4nn-analyze"], "-store", store, "show", ids[0])
	if !strings.Contains(out, "fitness curve") || !strings.Contains(out, "genome:") {
		t.Fatalf("show output:\n%s", out)
	}
	out = run(t, bins["a4nn-analyze"], "-store", store, "dot", ids[0])
	if !strings.Contains(out, "digraph") {
		t.Fatalf("dot output:\n%s", out)
	}
	out = run(t, bins["a4nn-analyze"], "-store", store, "top", "-n", "3")
	if !strings.Contains(out, "fitness %") {
		t.Fatalf("top output:\n%s", out)
	}
	out = run(t, bins["a4nn-analyze"], "-store", store, "correlate")
	if !strings.Contains(out, "Pearson") {
		t.Fatalf("correlate output:\n%s", out)
	}
	out = run(t, bins["a4nn-analyze"], "-store", store, "diversity")
	if !strings.Contains(out, "Hamming") {
		t.Fatalf("diversity output:\n%s", out)
	}
	gens := tableRows(run(t, bins["a4nn-analyze"], "-store", store, "gens"))
	if len(gens) != 2 {
		t.Fatalf("gens rows %q, want one per generation", gens)
	}
	for g, row := range gens {
		if f := strings.Fields(row); len(f) != 5 || f[0] != fmt.Sprint(g) || f[1] != "4" {
			t.Fatalf("gens row %q, want generation %d of 4 models", row, g)
		}
	}
	out = run(t, bins["a4nn-analyze"], "-store", store, "recovery")
	if !strings.HasPrefix(out, "launches 1, checkpoint resumes 0\n") || !strings.Contains(out, "no recovery events recorded") {
		t.Fatalf("recovery of a clean run:\n%s", out)
	}
	// The run had no -health, so there are no alerts to read.
	if b, err := exec.Command(bins["a4nn-analyze"], "-store", store, "health").CombinedOutput(); err == nil || !strings.Contains(string(b), "-health") {
		t.Fatalf("health without alerts: err %v, want a hint naming -health:\n%s", err, b)
	}

	// 4. -store alone leaves the run's telemetry: the journal is its one
	//    JSON Lines record, beside the metrics snapshot.
	if logs, _ := filepath.Glob(filepath.Join(store, "*.jsonl")); len(logs) != 1 || filepath.Base(logs[0]) != "events.jsonl" {
		t.Fatalf("JSON Lines files in the store: %v, want only events.jsonl", logs)
	}
	if _, err := os.Stat(filepath.Join(store, "metrics.json")); err != nil {
		t.Fatal(err)
	}
	out = run(t, bins["a4nn-analyze"], "-store", store, "telemetry")
	if rows := tableRows(out); len(rows) != 2 || !strings.HasPrefix(rows[0], "0 ") || !strings.HasPrefix(rows[1], "1 ") {
		t.Fatalf("telemetry rows %q, want one per generation:\n%s", rows, out)
	}
	// profile reads metrics.json alone; telemetry needs the journal.
	if err := os.Remove(filepath.Join(store, "events.jsonl")); err != nil {
		t.Fatal(err)
	}
	out = run(t, bins["a4nn-analyze"], "-store", store, "profile")
	if !strings.Contains(out, "no layer profile") {
		t.Fatalf("profile output:\n%s", out)
	}
	b, err := exec.Command(bins["a4nn-analyze"], "-store", store, "telemetry").CombinedOutput()
	if err == nil || !strings.Contains(string(b), "-store") {
		t.Fatalf("telemetry without a journal: err %v, want a hint naming -store:\n%s", err, b)
	}
	// The removed flags are unknown: flag's usage exit, 2.
	for _, gone := range []string{"-events=true", "-trace=" + work,
		"-cpuprofile=" + work + "/cpu", "-memprofile=" + work + "/mem", "-checkpoints", "-history-interval=1s"} {
		err := exec.Command(bins["a4nn"], gone).Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("a4nn %s: %v, want exit status 2", gone, err)
		}
	}

	// 5. Replay the search from the commons: identical accounting,
	//    explicitly reported.
	out = run(t, bins["a4nn"], "-beam", "medium", "-population", "4", "-offspring", "4",
		"-generations", "2", "-seed", "5", "-replay", store)
	if !strings.Contains(out, "replayed:           8") {
		t.Fatalf("replay output:\n%s", out)
	}

	// 6. Tear one record and resume with -health: the record is
	//    quarantined and retrained to the same generation table, recovery
	//    lists the quarantine, and health shows its alert resolved.
	torn := ids[0]
	paths, _ := filepath.Glob(filepath.Join(store, "records", torn+".json"))
	if len(paths) != 1 {
		t.Fatalf("record files of %s: %v", torn, paths)
	}
	if err := os.WriteFile(paths[0], []byte(`{"id": "to`), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(t, bins["a4nn"], "-beam", "medium", "-population", "4", "-offspring", "4",
		"-generations", "2", "-seed", "5", "-store", store, "-resume", "-health")
	if !strings.Contains(out, "crash recovery:     1 quarantined") {
		t.Fatalf("resume output:\n%s", out)
	}
	if got := tableRows(run(t, bins["a4nn-analyze"], "-store", store, "gens")); fmt.Sprint(got) != fmt.Sprint(gens) {
		t.Fatalf("gens after the repair %q, want %q", got, gens)
	}
	out = run(t, bins["a4nn-analyze"], "-store", store, "recovery")
	if rows := tableRows(out); len(rows) != 1 || strings.Join(strings.Fields(rows[0])[1:3], " ") != "decode "+torn {
		t.Fatalf("recovery rows %q, want one decode quarantine of %s:\n%s", rows, torn, out)
	}
	out = run(t, bins["a4nn-analyze"], "-store", store, "health")
	found := false
	for _, row := range tableRows(out) {
		// fired, severity, alert, count, state…: the host's free disk may
		// raise a disk alert beside it.
		if f := strings.Fields(row); len(f) > 4 && f[2] == "recovery/damage" {
			found = f[4] == "resolved"
		}
	}
	if !found {
		t.Fatalf("health: no resolved recovery/damage alert:\n%s", out)
	}

	// 7. Kill a search mid-model: its surrogate models keep no checkpoint
	//    file, yet recovery counts them unfinished from the journal until
	//    a -resume finishes them.
	killed := filepath.Join(work, "killed")
	args := []string{"-beam", "medium", "-population", "4", "-offspring", "4",
		"-generations", "2", "-seed", "5", "-devices", "1", "-store", killed}
	err = exec.Command(bins["a4nn"], append(args, "-chaos", "crash="+chaos.PointJournalAppend+"@40;seed=1")...).Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != chaos.ExitCode {
		t.Fatalf("chaos run: %v, want exit status %d", err, chaos.ExitCode)
	}
	if ckpts, _ := filepath.Glob(filepath.Join(killed, "checkpoints", "*")); len(ckpts) != 0 {
		t.Fatalf("a surrogate run left checkpoint files %v", ckpts)
	}
	out = run(t, bins["a4nn-analyze"], "-store", killed, "recovery")
	var pending int
	if _, err := fmt.Sscanf(outputLine(t, out, "unfinished models:"), "unfinished models: %d", &pending); err != nil || pending < 1 {
		t.Fatalf("recovery after a kill: %d unfinished (%v)\n%s", pending, err, out)
	}
	// A model whose record the kill lost after its model_done resumes
	// too, at its last epoch.
	out = run(t, bins["a4nn"], append(args, "-resume")...)
	var resumed int
	if _, err := fmt.Sscanf(outputLine(t, out, "checkpoint resumes:"), "checkpoint resumes: %d", &resumed); err != nil || resumed < pending {
		t.Fatalf("resume after a kill with %d unfinished model(s): %d resumed (%v)\n%s", pending, resumed, err, out)
	}
	if out = run(t, bins["a4nn-analyze"], "-store", killed, "recovery"); strings.Contains(out, "unfinished") {
		t.Fatalf("recovery after the resume still lists unfinished models:\n%s", out)
	}
}

// tableRows returns the data rows of the first table in an analyzer
// output: the lines after its dashed rule, up to the first blank line.
func tableRows(out string) []string {
	var rows []string
	inTable := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case !inTable:
			inTable = strings.HasPrefix(line, "---")
		case line == "":
			return rows
		default:
			rows = append(rows, line)
		}
	}
	return rows
}

// TestCLISignalFlush interrupts a long search mid-run and checks that
// the exit path still flushes every telemetry sink — the event journal,
// metrics, and the health monitor's alerts.jsonl — before the process
// dies, so a crashed or cancelled run is as analyzable as a finished one.
func TestCLISignalFlush(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI in -short mode")
	}
	bins := buildTools(t, "a4nn")
	store := filepath.Join(t.TempDir(), "runs")

	// A search far too large to finish: the interrupt must end it.
	cmd := exec.Command(bins["a4nn"], "-beam", "medium", "-population", "100",
		"-offspring", "100", "-generations", "500", "-seed", "7",
		"-store", store, "-health")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait until the journal file exists (setup is done and the signal
	// handler is installed), then let the search run a moment.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(store, "events.jsonl")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("events.jsonl never appeared; stderr:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond)

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil {
		t.Fatal("interrupted run exited zero")
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Fatalf("stderr missing interrupt notice:\n%s", stderr.String())
	}

	// Every sink flushed on the way out.
	for _, name := range []string{"events.jsonl", "metrics.json", "alerts.jsonl"} {
		if _, err := os.Stat(filepath.Join(store, name)); err != nil {
			t.Errorf("%s not flushed after SIGINT: %v", name, err)
		}
	}
}

func TestCLIExperimentsTables(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI in -short mode")
	}
	bins := buildTools(t, "experiments")
	out := run(t, bins["experiments"], "-table1", "-table2")
	for _, want := range []string{"a-b^(c-x)", "population", "25"} {
		if !strings.Contains(out, want) {
			t.Fatalf("experiments output missing %q:\n%s", want, out)
		}
	}
}

// searchArgs is a four-model, two-generation surrogate search.
func searchArgs(extra ...string) []string {
	return append([]string{"-beam", "medium", "-population", "4", "-offspring", "4",
		"-generations", "2", "-seed", "5"}, extra...)
}

// TestCLIFlags puts each a4nn flag that no other end-to-end test passes
// on a command line, one short search per flag.
func TestCLIFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI in -short mode")
	}
	bins := buildTools(t, "xfelgen", "a4nn", "a4nn-analyze")
	work := t.TempDir()

	// -standalone: the baseline trains every network to the last epoch.
	out := run(t, bins["a4nn"], searchArgs("-standalone")...)
	if !strings.Contains(out, "running standalone NSGA-Net") || !strings.Contains(out, "terminated early:   0 ") {
		t.Errorf("-standalone output:\n%s", out)
	}

	// -snapshots: one model state per trained epoch.
	store := filepath.Join(work, "snap")
	run(t, bins["a4nn"], searchArgs("-store", store, "-snapshots")...)
	cs, err := OpenCommons(store)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := cs.List()
	if err != nil || len(ids) != 8 {
		t.Fatalf("snapshot store records %v, %v", ids, err)
	}
	for _, id := range ids {
		rec, err := cs.GetRecord(id)
		if err != nil {
			t.Fatal(err)
		}
		files, _ := filepath.Glob(filepath.Join(store, "models", id, "epoch_*.bin"))
		if len(files) != rec.EpochsTrained() {
			t.Errorf("model %s: %d snapshot files for %d trained epochs", id, len(files), rec.EpochsTrained())
		}
	}

	// -faults with -retries and -task-timeout: the run survives the plan
	// and reports what it cost.
	out = run(t, bins["a4nn"], searchArgs("-devices", "2", "-faults", "transient=0.3;crash=1@1+1;seed=3",
		"-retries", "5", "-task-timeout", "1e7")...)
	if !strings.Contains(out, "reliability:") || !strings.Contains(out, "evaluated networks: 8") {
		t.Errorf("-faults output:\n%s", out)
	}

	// -health-strict exits 3 on a critical alert still active at the end.
	// These disk watermarks call any volume critically full; the health
	// specs turn the monitor on without -health.
	cmd := exec.Command(bins["a4nn"], searchArgs("-store", filepath.Join(work, "strict"), "-health-strict",
		"-health-config", "disk-warn=0.999999;disk-crit=0.999998", "-slo", "job_turnaround=1h")...)
	b, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 3 || !strings.Contains(string(b), "[critical] disk/space") {
		t.Errorf("-health-strict: %v, want exit status 3 and a disk alert\n%s", err, b)
	}

	// -profile-layers with -data: a4nn-analyze profile reads a layer table
	// out of the run's metrics.json.
	ds := filepath.Join(work, "ds.gob")
	run(t, bins["xfelgen"], "-beam", "medium", "-count", "40", "-size", "16", "-seed", "3", "-out", ds)
	pstore := filepath.Join(work, "prof")
	run(t, bins["a4nn"], "-data", ds, "-population", "2", "-offspring", "2", "-generations", "1",
		"-epochs", "2", "-store", pstore, "-profile-layers")
	out = run(t, bins["a4nn-analyze"], "-store", pstore, "profile")
	if !strings.Contains(out, "fwd s") || !strings.Contains(out, "total layer time") || len(tableRows(out)) == 0 {
		t.Errorf("profile after -profile-layers -data:\n%s", out)
	}
}

// TestCLIMetricsAddr serves a live run's metrics on an ephemeral port:
// /metrics always, the pprof index only with -pprof. The search is far
// too long to finish; SIGINT ends it once the routes are checked.
func TestCLIMetricsAddr(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI in -short mode")
	}
	bins := buildTools(t, "a4nn")
	for _, pprofOn := range []bool{false, true} {
		args := []string{"-beam", "medium", "-population", "100", "-offspring", "100",
			"-generations", "500", "-seed", "7", "-metrics-addr", "127.0.0.1:0"}
		want := http.StatusNotFound
		if pprofOn {
			args, want = append(args, "-pprof"), http.StatusOK
		}
		cmd := exec.Command(bins["a4nn"], args...)
		addr, _ := startAndRead(t, cmd, regexp.MustCompile(`serving metrics on http://(\S+)/metrics`))
		for path, code := range map[string]int{"/metrics": http.StatusOK, "/debug/pprof/": want} {
			resp, err := http.Get("http://" + addr + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != code {
				t.Errorf("-pprof=%v: GET %s = %d, want %d", pprofOn, path, resp.StatusCode, code)
			}
		}
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		cmd.Wait() // non-zero: the interrupted search returns the context error
	}
}

// TestCLIServeFollow starts a4nn-serve as a follower: -health-config
// turns the monitor on without -health, and -history takes the same
// duration syntax as a4nn -history. -health without -follow is refused.
func TestCLIServeFollow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI in -short mode")
	}
	bins := buildTools(t, "a4nn-serve")
	store := t.TempDir()
	cmd := exec.Command(bins["a4nn-serve"], "-store", store, "-addr", "127.0.0.1:0",
		"-follow", "-health-config", "resolve-after=2", "-history", "1s")
	_, out := startAndRead(t, cmd, regexp.MustCompile(`^(following) `))
	for _, want := range []string{"history sampling every 1s", "health monitor on"} {
		if !strings.Contains(out, want) {
			t.Errorf("a4nn-serve output missing %q:\n%s", want, out)
		}
	}
	cmd.Process.Signal(os.Interrupt)
	if err := cmd.Wait(); err != nil {
		t.Errorf("a4nn-serve after SIGINT: %v", err)
	}
	b, err := exec.Command(bins["a4nn-serve"], "-store", store, "-health").CombinedOutput()
	if err == nil || !strings.Contains(string(b), "needs -follow") {
		t.Errorf("-health without -follow: %v\n%s", err, b)
	}
}

// startAndRead starts cmd and reads its stdout until a line matches re;
// it returns re's first group and the output up to that line, and keeps
// draining stdout so the process never blocks on it. The process is
// killed at cleanup if it is still running.
func startAndRead(t *testing.T, cmd *exec.Cmd, re *regexp.Regexp) (group, out string) {
	t.Helper()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	var lines strings.Builder
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		lines.WriteString(sc.Text() + "\n")
		if m := re.FindStringSubmatch(sc.Text()); m != nil {
			go io.Copy(io.Discard, stdout)
			return m[1], lines.String()
		}
	}
	t.Fatalf("%s exited before printing a line matching %s:\n%s", filepath.Base(cmd.Path), re, lines.String())
	return "", ""
}

// TestFlagCensus holds DESIGN.md's census to the binaries: the flags
// each one's -h lists are exactly the census rows for it, and every test
// a row names exists. A flag cannot come or go without its row.
func TestFlagCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI in -short mode")
	}
	bins := buildTools(t, "a4nn", "a4nn-serve")
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	census := map[string][]string{}
	named := map[string]bool{}
	row := regexp.MustCompile("^\\| `(a4nn|a4nn-serve)` \\| `-([a-z-]+)` \\|(.*)\\|$")
	for _, line := range strings.Split(string(design), "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		census[m[1]] = append(census[m[1]], m[2])
		for _, name := range regexp.MustCompile(`\bTest\w+`).FindAllString(m[3], -1) {
			named[name] = true
		}
	}
	usage := regexp.MustCompile(`(?m)^  -([a-z-]+)`)
	for _, bin := range []string{"a4nn", "a4nn-serve"} {
		// -h prints the usage and exits; the status is flag's concern.
		b, _ := exec.Command(bins[bin], "-h").CombinedOutput()
		var flags []string
		for _, m := range usage.FindAllStringSubmatch(string(b), -1) {
			flags = append(flags, m[1])
		}
		rows := census[bin]
		sort.Strings(flags)
		sort.Strings(rows)
		if strings.Join(flags, " ") != strings.Join(rows, " ") {
			t.Errorf("%s -h lists %d flags %v\nDESIGN.md census has %d rows %v", bin, len(flags), flags, len(rows), rows)
		}
	}
	defined := map[string]bool{}
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range regexp.MustCompile(`(?m)^func (Test\w+)\(`).FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return err
	})
	for name := range named {
		if !defined[name] {
			t.Errorf("DESIGN.md census names %s, which no test file defines", name)
		}
	}
}
