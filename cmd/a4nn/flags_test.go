package main

import (
	"strings"
	"testing"
)

func TestValidateFlagsRejectsNoOpCombos(t *testing.T) {
	cases := []struct {
		name string
		f    flagSpec
		want string // substring of the error, "" for valid
	}{
		{"bare run", flagSpec{}, ""},
		{"pprof without metrics", flagSpec{Pprof: true}, "-pprof needs"},
		{"pprof with metrics", flagSpec{Pprof: true, MetricsAddr: ":0"}, ""},
		{"snapshots without store", flagSpec{Snapshots: true}, "-snapshots needs"},
		{"snapshots with store", flagSpec{Snapshots: true, Store: "runs"}, ""},
		{"health full", flagSpec{Health: true, Strict: true, Store: "runs"}, ""},
		{"history without sink", flagSpec{History: true}, "-history needs"},
		{"history with store", flagSpec{History: true, Store: "runs"}, ""},
		{"baseline without history", flagSpec{Baseline: "base.json", Health: true, Store: "runs"}, "-regress-baseline needs -history"},
		{"baseline full", flagSpec{Baseline: "base.json", History: true, Health: true, Store: "runs"}, ""},
	}
	for _, tc := range cases {
		_, err := validateFlags(tc.f)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateFlagsWarnings(t *testing.T) {
	// -health with no sink at all: legal, but warned about.
	w, err := validateFlags(flagSpec{Health: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 1 || !strings.Contains(w[0], "-health") {
		t.Fatalf("warnings = %q", w)
	}
	// Any one sink (or strict mode) silences it.
	for _, f := range []flagSpec{
		{Health: true, Store: "runs"},
		{Health: true, MetricsAddr: ":0"},
		{Health: true, Strict: true},
	} {
		if w, _ := validateFlags(f); len(w) != 0 {
			t.Errorf("%+v warned: %q", f, w)
		}
	}
	// -profile-layers on the surrogate trainer does nothing.
	w, err = validateFlags(flagSpec{ProfLayers: true, Store: "runs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 1 || !strings.Contains(w[0], "-profile-layers") {
		t.Fatalf("warnings = %q", w)
	}
	if w, _ := validateFlags(flagSpec{ProfLayers: true, DataPath: "d.gob", Store: "runs"}); len(w) != 0 {
		t.Errorf("profile-layers with -data warned: %q", w)
	}
	// An armed chaos plan always warns, once: a -store run checkpoints, so
	// a relaunch with -resume continues the model that was mid-training.
	w, err = validateFlags(flagSpec{Chaos: "crash=core.generation.commit@1", Store: "runs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 1 || !strings.Contains(w[0], "-chaos is armed") {
		t.Fatalf("chaos warnings = %q", w)
	}
}
