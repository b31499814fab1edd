package sched

import (
	"math"
	"testing"
)

// nonFiniteFaultSpecs are fault plans whose numbers are NaN, ±Inf or
// past a field's range. Each one used to parse: NaN fails every
// comparison of a range check written as "outside", and the straggler
// factor had no ceiling, so a run printed a NaN or +Inf wall time.
var nonFiniteFaultSpecs = []string{
	"failpoint=NaN;transient=0.5;seed=3",
	"slowfactor=Inf;slowdown=1;seed=3",
	"slowfactor=NaN;slowdown=1",
	"slowfactor=1e300;slowdown=1",
	"transient=NaN",
	"slowdown=nan",
	"crash=NaN",
	"failpoint=-Inf",
}

func TestParseFaultPlanRejectsNonFinite(t *testing.T) {
	for _, spec := range nonFiniteFaultSpecs {
		if plan, err := ParseFaultPlan(spec); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted %+v", spec, plan)
		}
	}
	for _, plan := range []FaultPlan{
		{CrashProb: math.NaN()},
		{FailPoint: math.NaN()},
		{SlowdownFactor: math.Inf(1)},
		{SlowdownFactor: maxSlowdownFactor + 1},
	} {
		if err := plan.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", plan)
		}
	}
	if err := (&FaultPlan{SlowdownFactor: maxSlowdownFactor, FailPoint: 1}).Validate(); err != nil {
		t.Errorf("range edges refused: %v", err)
	}
}

// FuzzParseFaultPlan asserts the -faults parser never panics and that
// every plan it accepts holds only finite values inside each field's
// documented range.
func FuzzParseFaultPlan(f *testing.F) {
	for _, spec := range nonFiniteFaultSpecs {
		f.Add(spec)
	}
	f.Add("transient=0.1;crash=2@1+1;slowdown=0.15;seed=3")
	f.Add("crash=0@1+3,crash=0.01,failpoint=0.25,slowfactor=2")
	f.Add("crash=1@;seed=-9")
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseFaultPlan(spec)
		if err != nil {
			return
		}
		for _, p := range []float64{plan.CrashProb, plan.TransientProb, plan.SlowdownProb, plan.FailPoint} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("%q: probability %v outside [0,1] in %+v", spec, p, plan)
			}
		}
		if s := plan.SlowdownFactor; s != 0 && !(s >= 1 && s <= maxSlowdownFactor) {
			t.Fatalf("%q: slow factor %v outside [1,%d]", spec, s, maxSlowdownFactor)
		}
		for _, c := range plan.Crashes {
			if c.Device < 0 || c.Generation < 0 {
				t.Fatalf("%q: crash %+v", spec, c)
			}
		}
	})
}
