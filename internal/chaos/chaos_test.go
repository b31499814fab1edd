package chaos

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// install arms a plan for one test and guarantees disarm + exit-stub
// restoration afterwards.
func install(t *testing.T, p *Plan) {
	t.Helper()
	Install(p)
	t.Cleanup(func() { Install(nil) })
}

func stubExit(t *testing.T) *[]int {
	t.Helper()
	var codes []int
	orig := exit
	exit = func(code int) { codes = append(codes, code) }
	t.Cleanup(func() { exit = orig })
	return &codes
}

func TestDisabledPointIsNil(t *testing.T) {
	Install(nil)
	for _, name := range Points() {
		if err := Point(name); err != nil {
			t.Fatalf("disabled Point(%s) = %v", name, err)
		}
	}
	if Installed() {
		t.Fatal("Installed() true with no plan")
	}
}

func TestErrRuleFiresOnExactVisit(t *testing.T) {
	plan, err := Parse("err=" + PointSnapshotPreRename + "@3")
	if err != nil {
		t.Fatal(err)
	}
	install(t, plan)
	if !Installed() {
		t.Fatal("Installed() false after Install")
	}
	for visit := 1; visit <= 5; visit++ {
		err := Point(PointSnapshotPreRename)
		if visit == 3 {
			if !IsInjected(err) {
				t.Fatalf("visit 3: want injected error, got %v", err)
			}
			var ie *InjectedError
			if !errors.As(err, &ie) || ie.Visit != 3 || ie.Point != PointSnapshotPreRename {
				t.Fatalf("visit 3: bad error detail %+v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("visit %d: unexpected %v", visit, err)
		}
	}
	// Other points are untouched.
	if err := Point(PointJournalAppend); err != nil {
		t.Fatalf("unrelated point fired: %v", err)
	}
}

func TestCrashRuleExits(t *testing.T) {
	codes := stubExit(t)
	plan, err := Parse("crash=" + PointGenerationCommit + "@2")
	if err != nil {
		t.Fatal(err)
	}
	install(t, plan)
	if err := Point(PointGenerationCommit); err != nil {
		t.Fatalf("visit 1: %v", err)
	}
	if err := Point(PointGenerationCommit); err != nil {
		t.Fatalf("visit 2 returned error instead of exiting: %v", err)
	}
	if len(*codes) != 1 || (*codes)[0] != ExitCode {
		t.Fatalf("exit codes = %v, want [%d]", *codes, ExitCode)
	}
}

// TestCrashParksOtherVisits: while an injected crash runs its hook, a
// visit on another goroutine parks instead of letting a durable
// transition land after the crash instant.
func TestCrashParksOtherVisits(t *testing.T) {
	stubExit(t)
	plan, err := Parse("crash=" + PointGenerationCommit + "@1")
	if err != nil {
		t.Fatal(err)
	}
	install(t, plan)
	returned := make(chan struct{})
	SetCrashHook(func() {
		go func() {
			Point(PointCheckpointPostWrite)
			close(returned)
		}()
		select {
		case <-returned:
			t.Error("a visit returned while the crash hook ran")
		case <-time.After(50 * time.Millisecond):
		}
	})
	t.Cleanup(func() { SetCrashHook(nil) })
	Point(PointGenerationCommit)
}

func TestInstallResetsCounters(t *testing.T) {
	plan, err := Parse("err=" + PointAlertsAppend + "@1")
	if err != nil {
		t.Fatal(err)
	}
	install(t, plan)
	if err := Point(PointAlertsAppend); !IsInjected(err) {
		t.Fatalf("first visit: %v", err)
	}
	Install(plan) // re-arm: counters reset, rule fires again on visit 1
	if err := Point(PointAlertsAppend); !IsInjected(err) {
		t.Fatalf("first visit after reinstall: %v", err)
	}
}

func TestProbabilisticRuleIsSeededAndDeterministic(t *testing.T) {
	fires := func(seed int64) []int {
		plan, err := Parse(fmt.Sprintf("err=%s%%0.3;seed=%d", PointJournalAppend, seed))
		if err != nil {
			t.Fatal(err)
		}
		Install(plan)
		defer Install(nil)
		var hits []int
		for visit := 1; visit <= 200; visit++ {
			if IsInjected(Point(PointJournalAppend)) {
				hits = append(hits, visit)
			}
		}
		return hits
	}
	a, b := fires(7), fires(7)
	if len(a) == 0 {
		t.Fatal("p=0.3 over 200 visits never fired")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(fires(8)) {
		t.Fatal("different seeds produced identical fire sequences")
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",                                   // empty
		"bogus",                              // not key=value
		"boom=x@1",                           // unknown key
		"crash=no.such.point@1",              // unknown point
		"crash=" + PointJournalAppend,        // no trigger
		"err=" + PointJournalAppend + "@0",   // visit 0
		"err=" + PointJournalAppend + "%1.5", // p > 1
		"seed=notanumber",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestCatalogue(t *testing.T) {
	names := Points()
	if len(names) != len(catalogue) {
		t.Fatalf("Points() returned %d names, catalogue has %d", len(names), len(catalogue))
	}
	for _, name := range names {
		if Describe(name) == "" {
			t.Errorf("point %s has no description", name)
		}
	}
}

func TestIsInjectedWrapped(t *testing.T) {
	err := fmt.Errorf("write checkpoint: %w", &InjectedError{Point: PointCheckpointPreWrite, Visit: 4})
	if !IsInjected(err) {
		t.Fatal("wrapped injected error not detected")
	}
	if IsInjected(errors.New("plain")) {
		t.Fatal("plain error reported as injected")
	}
	if IsInjected(nil) {
		t.Fatal("nil reported as injected")
	}
}

// BenchmarkDisabledChaos is enforced at exactly 0 allocs/op by the
// bench gate: with no plan installed a crash point costs one atomic
// load and a branch, so production runs pay nothing for the harness.
func BenchmarkDisabledChaos(b *testing.B) {
	Install(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Point(PointSnapshotPreRename); err != nil {
			b.Fatal(err)
		}
	}
}

// Describe returns the catalogue description of a point name ("" when
// unknown).
func Describe(name string) string { return catalogue[name] }

// Installed reports whether a plan is armed.
func Installed() bool { return active.Load() != nil }
