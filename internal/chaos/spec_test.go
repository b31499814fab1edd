package chaos

import "testing"

// nonFiniteChaosSpecs are crash plans with a NaN or infinite
// probability. A probability check written as "outside (0,1]" is false
// for NaN, so the first of these used to parse.
var nonFiniteChaosSpecs = []string{
	"err=" + PointJournalAppend + "%NaN",
	"crash=" + PointSnapshotPreRename + "%nan;seed=3",
	"err=" + PointJournalAppend + "%Inf",
	"err=" + PointJournalAppend + "%-Inf",
}

func TestParseRejectsNonFinite(t *testing.T) {
	for _, spec := range nonFiniteChaosSpecs {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

// FuzzParseChaosPlan asserts the -chaos parser never panics and that
// every plan it accepts names catalogue points only, each rule firing
// on an exact visit ≥ 1 or with a probability in (0,1].
func FuzzParseChaosPlan(f *testing.F) {
	for _, spec := range nonFiniteChaosSpecs {
		f.Add(spec)
	}
	f.Add("crash=" + PointSnapshotPreRename + "@3;seed=7")
	f.Add("err=" + PointJournalAppend + "%0.1,crash=" + PointGenerationCommit + "@2")
	f.Add("crash=" + PointCheckpointPostWrite + "@0")
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := Parse(spec)
		if err != nil {
			return
		}
		for name, rules := range plan.rules {
			if Describe(name) == "" {
				t.Fatalf("%q: unknown point %q accepted", spec, name)
			}
			for _, r := range rules {
				if r.mode != modeCrash && r.mode != modeErr {
					t.Fatalf("%q: rule mode %d", spec, r.mode)
				}
				if r.visit == 0 && !(r.prob > 0 && r.prob <= 1) {
					t.Fatalf("%q: %s probability %v outside (0,1]", spec, name, r.prob)
				}
			}
		}
	})
}
