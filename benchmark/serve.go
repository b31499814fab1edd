package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"a4nn/internal/commons"
	"a4nn/internal/jobs"
	"a4nn/internal/obs"
	"a4nn/internal/webui"
)

const (
	// jobsInFlight is how many submitted jobs the first connection keeps
	// unfinished. They contend for one fleet slot at generation
	// boundaries; with the reader that keeps busy threads at the host's
	// two cores. (With two slots the prototype's read p50 was 14–17 ms
	// against 0.3 ms with one: it measured the Go scheduler.)
	jobsInFlight = 3
	fleetSlots   = 1
	// readThink is the pause between the second connection's reads.
	readThink = 2 * time.Millisecond
	// querySeries is what job_query asks a finished job's history for.
	querySeries = "a4nn_train_epochs_total"
)

// service is an in-process a4nn-serve -jobs -history: webui.Server and
// jobs.Manager behind a real loopback listener.
type service struct {
	manager *jobs.Manager
	server  *http.Server
	base    string
	served  chan error
}

func startService(root string) (*service, error) {
	store, err := commons.Open(root)
	if err != nil {
		return nil, err
	}
	ui, err := webui.New(store)
	if err != nil {
		return nil, err
	}
	observer := obs.NewObserver()
	ui.SetObserver(observer)
	jobsRoot := filepath.Join(root, "jobs")
	manager, err := jobs.NewManager(jobs.Options{
		Root:         jobsRoot,
		FleetSlots:   fleetSlots,
		Obs:          observer,
		History:      historyInterval,
		HealthConfig: pinnedHealth(jobsRoot), // the manager points DiskPath at each job
	})
	if err != nil {
		return nil, err
	}
	ui.SetJobs(manager)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		manager: manager,
		server:  &http.Server{Handler: ui},
		base:    "http://" + ln.Addr().String(),
		served:  make(chan error, 1),
	}
	go func() { s.served <- s.server.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the manager down and waits for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.server.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.manager.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// warm is the service's share of a set-up repeat: one small job over
// HTTP, start to finish, so that lazy initialisation is paid before the
// timed region and set-up is long enough to time.
func (s *service) warm(seed int64) error {
	client := connection()
	defer client.CloseIdleConnections()
	body, err := json.Marshal(jobs.Config{ID: "warm", Seed: seed, Population: 4, Offspring: 4, Generations: 3})
	if err != nil {
		return err
	}
	if status, err := fetch(client, http.MethodPost, s.base+"/api/jobs", body); err != nil || status != http.StatusCreated {
		return fmt.Errorf("warm-up job: status %d, %v", status, err)
	}
	st, err := s.manager.Wait(context.Background(), "warm")
	if err != nil || st.State != jobs.StateCompleted {
		return fmt.Errorf("warm-up job ended %s: %s %v", st.State, st.Error, err)
	}
	return nil
}

// connection is one client with exactly one TCP connection to the service.
func connection() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// fetch issues one request, drains the reply and returns its status.
func fetch(c *http.Client, method, url string, body []byte) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// jobBoard is what the two connections share: which jobs the reader may
// ask about, and what the submitter measured.
type jobBoard struct {
	mu        sync.Mutex
	readable  []string // submitted, metrics scope up
	completed []string
	turnround []float64
	submit    []float64
	statuses  []jobs.Status
	failed    int
}

// runServe measures the job service: connection 1 submits the planFor
// searches as jobs, keeping jobsInFlight unfinished; connection 2 reads
// the API in a closed loop with readThink between requests, drawing
// uniformly over webRoutes. The timed region runs from the first POST to
// the last job's end.
func (b *bench) runServe() error {
	var svc *service
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, err := startService(filepath.Join(b.dir, fmt.Sprintf("service-%d", i)))
		if err != nil {
			return err
		}
		if err := s.warm(b.seed); err != nil {
			s.stop()
			return err
		}
		b.out.setups = append(b.out.setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			if err := s.stop(); err != nil {
				return err
			}
		}
		svc = s
	}
	defer svc.stop()

	board := &jobBoard{}
	readerDone := make(chan *readLog, 1)
	stopReader := make(chan struct{})
	go func() { readerDone <- b.readLoop(svc, board, stopReader) }()
	var fleet *fleetWatch
	if b.tr != nil {
		fleet = watchFleet(svc.manager)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := b.submitLoop(svc, board, start)
	b.out.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	close(stopReader)
	reads := <-readerDone
	if fleet != nil {
		fleet.stop()
	}
	if err != nil {
		return err
	}
	b.out.allocBytes = after.TotalAlloc - before.TotalAlloc
	b.out.units = board.turnround
	b.out.failed += board.failed + reads.failed
	b.out.attempted += len(board.statuses) + len(reads.pooled())

	// Jobs end in any order; fingerprint i belongs to planFor(seed, i).
	sort.Slice(board.statuses, func(i, j int) bool { return board.statuses[i].ID < board.statuses[j].ID })
	for _, st := range board.statuses {
		b.checkJob(svc.manager, st)
	}
	if len(b.out.fingerprints) > 0 {
		// The service must not change what a search finds.
		if err := b.expectBare(0, b.out.fingerprints[0]); err != nil {
			return err
		}
	}
	if b.tr != nil {
		b.serveLayers(board, reads, fleet)
	}
	return nil
}

// submitLoop is connection 1. It returns when every submitted job has
// reached a terminal state.
func (b *bench) submitLoop(svc *service, board *jobBoard, start time.Time) error {
	client := connection()
	defer client.CloseIdleConnections()
	slots := make(chan struct{}, jobsInFlight)
	var waiters sync.WaitGroup
	var firstErr error
	for i := 0; ; i++ {
		slots <- struct{}{} // waits for one of the jobs in flight to end
		board.mu.Lock()
		more := b.another(start, board.turnround)
		board.mu.Unlock()
		if !more {
			break
		}
		p := planFor(b.seed, i)
		id := fmt.Sprintf("job-%03d", i)
		body, err := json.Marshal(jobs.Config{ID: id, Beam: p.beam.String(), Seed: p.seed})
		if err != nil {
			return err
		}
		span := b.tr.start("job", 0)
		sent := time.Now()
		status, err := fetch(client, http.MethodPost, svc.base+"/api/jobs", body)
		took := time.Since(sent).Seconds()
		if err != nil || status != http.StatusCreated {
			firstErr = fmt.Errorf("submit %s: status %d, %v", id, status, err)
			break
		}
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			defer func() { <-slots }()
			// The job's metrics scope appears a moment after the POST
			// returns; the reader is told about the job only then, so
			// no read can race the job's own start-up into a 503.
			for {
				if reg, _ := svc.manager.JobRegistry(id); reg != nil {
					board.mu.Lock()
					board.readable = append(board.readable, id)
					board.mu.Unlock()
					break
				}
				if st, _ := svc.manager.Get(id); st.State.Terminal() {
					break // failed before it started; Wait reports it
				}
				time.Sleep(time.Millisecond)
			}
			st, err := svc.manager.Wait(context.Background(), id)
			b.tr.end(span)
			board.mu.Lock()
			defer board.mu.Unlock()
			board.submit = append(board.submit, took)
			board.statuses = append(board.statuses, st)
			if err != nil || st.State != jobs.StateCompleted {
				board.failed++
				return
			}
			board.completed = append(board.completed, id)
			board.turnround = append(board.turnround, st.Finished.Sub(sent).Seconds())
		}()
	}
	waiters.Wait()
	return firstErr
}

// checkJob verifies one finished job from its own directory and folds it
// into the totals.
func (b *bench) checkJob(m *jobs.Manager, st jobs.Status) {
	label := fmt.Sprintf("%s[%s]", b.name, st.ID)
	if st.State != jobs.StateCompleted {
		b.out.problem(fmt.Sprintf("%s: ended %s: %s", label, st.State, st.Error))
		return
	}
	if st.Progress.ModelsDone != st.Progress.ModelsTotal {
		b.out.problem(fmt.Sprintf("%s: %d of %d models done", label, st.Progress.ModelsDone, st.Progress.ModelsTotal))
	}
	if st.Progress.BestFitness <= 0 || st.Progress.BestFitness > 100 {
		b.out.problem(fmt.Sprintf("%s: best fitness %v outside (0,100]", label, st.Progress.BestFitness))
	}
	b.out.models += st.Progress.ModelsDone
	b.out.epochs += st.Progress.EpochsTrained
	b.out.epochBudget += st.Progress.ModelsDone * st.Config.Epochs
	b.out.bestSum += st.Progress.BestFitness
	b.out.searches++
	b.out.attempted += st.Progress.ModelsDone

	dir, err := m.Dir(st.ID)
	if err != nil {
		b.out.problem(fmt.Sprintf("%s: %v", label, err))
		return
	}
	store, err := commons.Open(dir)
	if err != nil {
		b.out.problem(fmt.Sprintf("%s: %v", label, err))
		return
	}
	recs, err := store.All()
	if err != nil || len(recs) != st.Progress.ModelsTotal {
		b.out.problem(fmt.Sprintf("%s: %d records in its commons, want %d (%v)", label, len(recs), st.Progress.ModelsTotal, err))
		return
	}
	b.out.fingerprints = append(b.out.fingerprints, fingerprint(recs))
	if reg, _ := m.JobRegistry(st.ID); reg != nil {
		b.out.problem(checkJournal(label, filepath.Join(dir, obs.EventsFile), reg)...)
	}
}

// readLog is what connection 2 measured: seconds per request, by route.
type readLog struct {
	byRoute map[string][]float64
	failed  int
}

func (r *readLog) pooled() []float64 {
	var all []float64
	for _, v := range r.byRoute {
		all = append(all, v...)
	}
	return all
}

// readLoop is connection 2: until told to stop, draw a route, read it,
// think. Job routes draw their id from the jobs submitted so far,
// job_query from the finished ones (a terminal job's history is reopened
// from its file on every call); a route with no job to ask about yet is
// redrawn.
func (b *bench) readLoop(svc *service, board *jobBoard, stop <-chan struct{}) *readLog {
	client := connection()
	defer client.CloseIdleConnections()
	rng := rand.New(rand.NewSource(b.seed))
	log := &readLog{byRoute: make(map[string][]float64)}
	pick := func(ids []string) string {
		if len(ids) == 0 {
			return ""
		}
		return ids[rng.Intn(len(ids))]
	}
	for {
		select {
		case <-stop:
			return log
		default:
		}
		route := webRoutes[rng.Intn(len(webRoutes))]
		board.mu.Lock()
		readable, completed := pick(board.readable), pick(board.completed)
		board.mu.Unlock()
		path := readPath(route, readable, completed)
		if path == "" {
			continue // no job to ask about yet
		}
		span := b.tr.start("http."+route, 0)
		t0 := time.Now()
		status, err := fetch(client, http.MethodGet, svc.base+path, nil)
		log.byRoute[route] = append(log.byRoute[route], time.Since(t0).Seconds())
		b.tr.end(span)
		if err != nil || status/100 != 2 {
			log.failed++
		}
		time.Sleep(readThink)
	}
}

// readPath is the URL path of one read route; "" when the route needs a
// job and there is none yet.
func readPath(route, readable, completed string) string {
	switch route {
	case "jobs_list":
		return "/api/jobs"
	case "fleet":
		return "/api/fleet"
	case "metrics":
		return "/metrics"
	}
	id := readable
	if route == "job_query" {
		id = completed
	}
	if id == "" {
		return ""
	}
	switch route {
	case "job_get":
		return "/api/jobs/" + id
	case "job_metrics":
		return "/api/jobs/" + id + "/metrics"
	default: // job_query
		return "/api/jobs/" + id + "/query?series=" + querySeries + "&step=100"
	}
}

// fleetWatch samples the shared fleet while jobs run: a job leaves the
// arbiter's table the moment it ends, so its wait and grant counters are
// read as it goes. Each is monotone per job; the last reading before the
// job leaves may miss its final generation.
type fleetWatch struct {
	quit, done chan struct{}
	wait       map[string]float64
	grants     map[string]int
}

func watchFleet(m *jobs.Manager) *fleetWatch {
	w := &fleetWatch{
		quit: make(chan struct{}), done: make(chan struct{}),
		wait: make(map[string]float64), grants: make(map[string]int),
	}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.quit:
				return
			case <-tick.C:
				for _, j := range m.Fleet().Status().Jobs {
					w.wait[j.ID] = max(w.wait[j.ID], j.WaitSeconds)
					w.grants[j.ID] = max(w.grants[j.ID], j.Grants)
				}
			}
		}
	}()
	return w
}

func (w *fleetWatch) stop() {
	close(w.quit)
	<-w.done
}

// serveLayers fills the jobs, webui and sched.fleet metrics.
func (b *bench) serveLayers(board *jobBoard, reads *readLog, fleet *fleetWatch) {
	var queued, ran []float64
	for _, st := range board.statuses {
		if st.State == jobs.StateCompleted {
			queued = append(queued, st.Started.Sub(st.Created).Seconds())
			ran = append(ran, st.Finished.Sub(st.Started).Seconds())
		}
	}
	b.setLayer("jobs.submit_p50_ms", 1e3*median(board.submit))
	b.setLayer("jobs.queue_wait_p50_s", median(queued))
	b.setLayer("jobs.run_p50_s", median(ran))
	b.setLayer("jobs.turnaround_p50_s", median(board.turnround))
	b.setLayer("jobs.completed", float64(len(board.completed)))
	b.setLayer("jobs.failed", float64(board.failed))
	b.setLayer("bench.fsync_calls", float64((syncCallsPerStack+manifestWritesPerJob)*len(board.statuses)))

	for _, route := range webRoutes {
		took := reads.byRoute[route]
		b.setLayer("webui."+route+"_p50_ms", 1e3*median(took))
		b.setLayer("webui."+route+"_p99_ms", 1e3*percentile(took, 99))
		b.setLayer("webui."+route+"_count", float64(len(took)))
	}
	all := reads.pooled()
	tailValue, tailPct := tail(all)
	b.setLayer("webui.read_p50_ms", 1e3*median(all))
	b.setLayer("webui.read_p90_ms", 1e3*percentile(all, 90))
	b.setLayer("webui.read_ptail_ms", 1e3*tailValue)
	b.setLayer("webui.read_ptail_pct", tailPct)
	b.setLayer("webui.read_count", float64(len(all)))
	b.setLayer("webui.non2xx", float64(reads.failed))

	var wait float64
	grants := 0
	for id := range fleet.wait {
		wait += fleet.wait[id]
		grants += fleet.grants[id]
	}
	b.setLayer("sched.fleet_wait_s", wait)
	b.setLayer("sched.fleet_acquires", float64(grants))
}

// manifestWritesPerJob counts the fsync-ing job.json writes of a job that
// is never paused: at submission and at its terminal state.
const manifestWritesPerJob = 2
