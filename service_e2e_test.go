package a4nn

// Service-grade end-to-end test of the multi-tenant job service: boot
// a4nn-serve -jobs, submit two concurrent searches over HTTP, kill the
// process mid-run, restart with -resume, and assert both jobs complete
// with intact journals and records byte-identical to same-seed solo
// runs. This is the whole-service counterpart of chaos_soak_test.go's
// single-run kill loop.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// serveProc is one running a4nn-serve under test.
type serveProc struct {
	cmd  *exec.Cmd
	addr string
	out  *lockedBuffer
}

// lockedBuffer collects the server's output for failure messages: the
// stdout scanner below and os/exec's stderr copier write it from two
// goroutines while the test may already be reading it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var serveAddrRe = regexp.MustCompile(`on http://([0-9.]+:[0-9]+)`)

// startServe boots a4nn-serve -jobs on an ephemeral port and waits for
// the listen address to appear on stdout.
func startServe(t *testing.T, bin, store string, extra ...string) *serveProc {
	t.Helper()
	args := append([]string{"-store", store, "-jobs", "-fleet", "2", "-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	var buf lockedBuffer
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			buf.Write([]byte(line + "\n"))
			if m := serveAddrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		p := &serveProc{cmd: cmd, addr: addr, out: &buf}
		t.Cleanup(func() {
			if cmd.Process != nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		})
		return p
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("a4nn-serve never printed its address:\n%s", buf.String())
		return nil
	}
}

func (p *serveProc) url(path string) string { return "http://" + p.addr + path }

// jobStatusWire mirrors the GET /api/jobs/{id} payload.
type jobStatusWire struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	Progress struct {
		GenerationsDone int `json:"generations_done"`
		ModelsDone      int `json:"models_done"`
	} `json:"progress"`
	Resumes int `json:"resumes"`
}

func getJob(t *testing.T, p *serveProc, id string) (jobStatusWire, error) {
	t.Helper()
	resp, err := http.Get(p.url("/api/jobs/" + id))
	if err != nil {
		return jobStatusWire{}, err
	}
	defer resp.Body.Close()
	var st jobStatusWire
	if resp.StatusCode != 200 {
		return st, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	return st, nil
}

func postJob(t *testing.T, p *serveProc, body string) {
	t.Helper()
	resp, err := http.Post(p.url("/api/jobs"), "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var sb strings.Builder
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		sb.Write(buf[:n])
		t.Fatalf("submit: %d %s", resp.StatusCode, sb.String())
	}
}

// postJobAction POSTs /api/jobs/{id}/{action} (pause, resume) and
// requires it to succeed.
func postJobAction(t *testing.T, p *serveProc, id, action string) {
	t.Helper()
	resp, err := http.Post(p.url("/api/jobs/"+id+"/"+action), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s %s: %d %s", action, id, resp.StatusCode, body)
	}
}

// e2eJob is the submission both service jobs and the reference solo
// runs share. Its 40 generations keep a job mid-search until the pause
// POSTs that follow its submission land: at 8, a job on a loaded 2-vCPU
// host could finish inside those round trips.
func e2eJob(id string, seed int64) JobConfig {
	return JobConfig{
		ID: id, Beam: "medium", Devices: 1,
		Population: 6, Offspring: 6, Generations: 40, Epochs: 10, Seed: seed,
	}
}

func e2eJobBody(jc JobConfig) string {
	data, _ := json.Marshal(jc)
	return string(data)
}

// canonicalStoreRecords marshals a commons' records with timestamps
// zeroed, for byte-level comparison across runs.
func canonicalStoreRecords(t *testing.T, dir string) map[string]string {
	t.Helper()
	store, err := OpenCommons(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := store.All()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(recs))
	for _, r := range recs {
		r.CreatedAt = time.Time{}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[r.ID] = string(data)
	}
	return out
}

func TestServiceKillResumeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	bins := buildTools(t, "a4nn-serve", "a4nn-analyze")
	store := scratchDir(t, "store")
	jobsDir := filepath.Join(store, "jobs")
	jobA, jobB := e2eJob("job-a", 42), e2eJob("job-b", 43)

	// Boot the service and submit two concurrent searches sharing the
	// 2-slot fleet.
	p := startServe(t, bins["a4nn-serve"], store)
	postJob(t, p, e2eJobBody(jobA))
	postJob(t, p, e2eJobBody(jobB))

	// Pause each search right after its submission, so however fast it
	// runs, the kill below lands while both are mid-search. A pause takes
	// effect at the next generation boundary: a search paused before its
	// first fleet grant has trained nothing, so it is resumed and paused
	// again until it has trained a model.
	ids := []string{"job-a", "job-b"}
	for _, id := range ids {
		postJobAction(t, p, id, "pause")
	}
	ready := map[string]bool{}
	deadline := time.Now().Add(60 * time.Second)
	for len(ready) < len(ids) {
		for _, id := range ids {
			st, err := getJob(t, p, id)
			switch {
			case err != nil || ready[id]:
			case st.State == "completed" || st.State == "failed" || st.State == "canceled":
				t.Fatalf("job %s finished before the kill (state %s)", id, st.State)
			case st.State == "paused" && st.Progress.ModelsDone >= 1:
				ready[id] = true
			case st.State == "paused":
				postJobAction(t, p, id, "resume")
				postJobAction(t, p, id, "pause")
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never trained a model while paused (ready: %v)\n%s", ready, p.out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()

	// The kill left non-terminal manifests behind.
	manifests, err := ReadJobManifests(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(manifests) != 2 {
		t.Fatalf("manifests after kill = %d, want 2", len(manifests))
	}
	for _, m := range manifests {
		if m.State.Terminal() {
			t.Fatalf("job %s finished before the kill (state %s)", m.Config.ID, m.State)
		}
	}

	// Restart with -resume: every interrupted job continues from its
	// journal, checkpoints, and completed records. A job paused when it
	// was killed comes back paused; resume both once recovery has them.
	p2 := startServe(t, bins["a4nn-serve"], store, "-resume")
	deadline = time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for st, err := getJob(t, p2, id); err != nil || st.State != "paused"; st, err = getJob(t, p2, id) {
			if time.Now().After(deadline) {
				t.Fatalf("%s not recovered paused: %+v %v\n%s", id, st, err, p2.out.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
		postJobAction(t, p2, id, "resume")
	}
	deadline = time.Now().Add(120 * time.Second)
	for {
		a, errA := getJob(t, p2, "job-a")
		b, errB := getJob(t, p2, "job-b")
		if errA == nil && errB == nil && a.State == "completed" && b.State == "completed" {
			break
		}
		if errA == nil && (a.State == "failed" || a.State == "canceled") {
			t.Fatalf("job-a ended %s: %s", a.State, a.Error)
		}
		if errB == nil && (b.State == "failed" || b.State == "canceled") {
			t.Fatalf("job-b ended %s: %s", b.State, b.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never completed after resume: %v %v\n%s", errA, errB, p2.out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Graceful shutdown this time.
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p2.cmd.Wait(); err != nil {
		t.Fatalf("serve exit: %v\n%s", err, p2.out.String())
	}

	for _, jc := range []JobConfig{jobA, jobB} {
		jobDir := filepath.Join(jobsDir, jc.ID)

		// Journal integrity: one events.jsonl per job, sequence numbers
		// strictly increasing across the kill/restart boundary, exactly
		// one terminal run_end.
		events, err := ReadEvents(filepath.Join(jobDir, EventsFile))
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 {
			t.Fatalf("%s: empty journal", jc.ID)
		}
		var lastSeq uint64
		for _, e := range events {
			if e.Seq <= lastSeq {
				t.Fatalf("%s: journal seq not monotone: %d after %d", jc.ID, e.Seq, lastSeq)
			}
			lastSeq = e.Seq
		}

		// Determinism: the resumed service run produced records
		// byte-identical (modulo timestamps) to a clean same-seed run.
		solo := jc
		solo.ID = "solo"
		cfg, err := BuildJobSearchConfig(solo)
		if err != nil {
			t.Fatal(err)
		}
		soloDir := t.TempDir()
		soloStore, err := OpenCommons(soloDir)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = soloStore
		cfg.Obs = NewObserver()
		if _, err := RunCtx(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		got, want := canonicalStoreRecords(t, jobDir), canonicalStoreRecords(t, soloDir)
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, solo run has %d", jc.ID, len(got), len(want))
		}
		for id, w := range want {
			if got[id] != w {
				t.Errorf("%s: record %s diverges from solo run", jc.ID, id)
			}
		}
	}

	// The offline fleet view agrees.
	out := run(t, bins["a4nn-analyze"], "-store", store, "jobs")
	for _, want := range []string{"job-a", "job-b", "completed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("analyze jobs missing %q:\n%s", want, out)
		}
	}
}
