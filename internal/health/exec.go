package health

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"

	"a4nn/internal/obs"
)

// execSink runs the -alert-cmd command on alert transitions: the
// operator's bridge from in-situ monitoring to the outside world (a
// pager webhook, a Slack script, `wall`). Each transition enqueues to a
// bounded buffer consumed by one worker goroutine, so a slow or hung
// command never blocks a check cycle — when the buffer is full or the
// per-alert rate limit is hot, the transition is counted as dropped
// instead. Exit codes are logged as alert_cmd journal events.
type execSink struct {
	cmd      string
	interval time.Duration
	// run executes the command and returns its exit code; injectable
	// for tests. The default runs `sh -c cmd` with the alert JSON on
	// stdin and A4NN_ALERT_* variables in the environment.
	run     func(cmd string, env []string, stdin []byte) (int, error)
	journal *obs.Journal
	now     func() time.Time

	queue chan execJob
	done  chan struct{}

	mu     sync.Mutex
	closed bool
	last   map[string]time.Time // last run per alert ID (rate limit)

	runs    *obs.Counter
	errs    *obs.Counter
	dropped *obs.Counter
}

// execJob is one queued transition.
type execJob struct {
	Alert      Alert  `json:"alert"`
	Transition string `json:"transition"` // fired | escalated | resolved
}

func newExecSink(cmd string, interval time.Duration, o *obs.Observer) *execSink {
	reg := o.Registry()
	s := &execSink{
		cmd:      cmd,
		interval: interval,
		run:      runShell,
		journal:  o.Journal(),
		now:      time.Now,
		queue:    make(chan execJob, 64),
		done:     make(chan struct{}),
		last:     make(map[string]time.Time),
		runs:     reg.Counter("a4nn_health_alert_cmd_runs_total"),
		errs:     reg.Counter("a4nn_health_alert_cmd_errors_total"),
		dropped:  reg.Counter("a4nn_health_alert_cmd_dropped_total"),
	}
	go s.worker()
	return s
}

// runShell is the production runner.
func runShell(cmd string, env []string, stdin []byte) (int, error) {
	c := exec.Command("sh", "-c", cmd)
	c.Env = append(os.Environ(), env...)
	c.Stdin = bytes.NewReader(stdin)
	err := c.Run()
	if err == nil {
		return 0, nil
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), nil
	}
	return -1, err
}

// notify enqueues one transition; called under the engine mutex, so it
// must never block. Nil-safe.
func (s *execSink) notify(a Alert, transition string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	now := s.now()
	if last, ok := s.last[a.ID]; ok && now.Sub(last) < s.interval {
		s.mu.Unlock()
		s.dropped.Inc()
		return
	}
	s.last[a.ID] = now
	s.mu.Unlock()
	select {
	case s.queue <- execJob{Alert: a, Transition: transition}:
	default:
		s.dropped.Inc()
	}
}

// worker drains the queue until close.
func (s *execSink) worker() {
	defer close(s.done)
	for job := range s.queue {
		s.exec(job)
	}
}

// exec runs the command for one transition and logs the exit code.
func (s *execSink) exec(job execJob) {
	payload, err := json.Marshal(job)
	if err != nil {
		s.errs.Inc()
		return
	}
	env := []string{
		"A4NN_ALERT_ID=" + job.Alert.ID,
		"A4NN_ALERT_MONITOR=" + job.Alert.Monitor,
		"A4NN_ALERT_SEVERITY=" + string(job.Alert.Severity),
		"A4NN_ALERT_TRANSITION=" + job.Transition,
		"A4NN_ALERT_MSG=" + job.Alert.Message,
	}
	code, err := s.run(s.cmd, env, payload)
	s.runs.Inc()
	msg := fmt.Sprintf("alert-cmd %s %s: exit %d", job.Transition, job.Alert.ID, code)
	if err != nil {
		s.errs.Inc()
		msg = fmt.Sprintf("alert-cmd %s %s: %v", job.Transition, job.Alert.ID, err)
	} else if code != 0 {
		s.errs.Inc()
	}
	s.journal.Emit(obs.Event{
		Type:     obs.EventAlertCmd,
		AlertID:  job.Alert.ID,
		Severity: string(job.Alert.Severity),
		Msg:      msg,
	})
}

// close stops accepting transitions, waits for queued commands to
// finish, and releases the worker. Nil-safe and idempotent.
func (s *execSink) close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	<-s.done
}
