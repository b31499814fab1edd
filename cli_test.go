package a4nn

// End-to-end tests of the command-line tools: build the binaries and
// drive the xfelgen → a4nn → a4nn-analyze pipeline through their real
// CLIs, the way a user would.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
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
	// The removed telemetry flags are unknown: flag's usage exit, 2.
	for _, gone := range []string{"-events=true", "-trace=" + work} {
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
