package analyzer

import (
	"strings"
	"testing"

	"a4nn/internal/obs"
)

func TestFormatTelemetryEmpty(t *testing.T) {
	for _, tel := range []*obs.Telemetry{nil, {}} {
		if got := FormatTelemetry(tel); !strings.Contains(got, "no telemetry") {
			t.Fatalf("empty telemetry rendered %q", got)
		}
	}
}

func TestFormatTelemetry(t *testing.T) {
	tel := &obs.Telemetry{
		Spans: 12,
		Generations: []obs.GenTelemetry{
			{Generation: 0, Tasks: 10, WallSeconds: 7200, Utilisation: 0.85,
				MeanQueueWaitSeconds: 30, EpochsTrained: 180, EpochsSaved: 70,
				Terminated: 4, Retries: 1, Faults: 2},
			{Generation: 1, Tasks: 10, WallSeconds: 3600, Utilisation: 0.9,
				EpochsTrained: 150, EpochsSaved: 100, Terminated: 7},
		},
		EpochsTrained: 330,
		EpochsSaved:   170,
		Terminated:    11,
	}
	got := FormatTelemetry(tel)
	for _, want := range []string{
		"gen", "util", "85%", "90%",
		"journal lines: 12", "epochs trained: 330",
		"saved: 170 (34.0% of budget)", "terminated early: 11",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("telemetry output missing %q:\n%s", want, got)
		}
	}
	// Without event counters there must be no events line, and without
	// health counters no health line.
	if strings.Contains(got, "events:") {
		t.Fatalf("unexpected events line:\n%s", got)
	}
	if strings.Contains(got, "health:") {
		t.Fatalf("unexpected health line:\n%s", got)
	}
}

func TestFormatTelemetryHealthSection(t *testing.T) {
	tel := &obs.Telemetry{
		Generations: []obs.GenTelemetry{{Generation: 0, Tasks: 1}},
		Metrics: obs.Snapshot{
			Counters: map[string]uint64{
				"a4nn_health_checks_total":                            420,
				`a4nn_health_alerts_fired_total{severity="critical"}`: 2,
				`a4nn_health_alerts_fired_total{severity="warning"}`:  3,
				"a4nn_health_alerts_resolved_total":                   4,
			},
			Gauges: map[string]float64{"a4nn_health_alerts_active": 1},
		},
	}
	got := FormatTelemetry(tel)
	want := "health: 420 checks · alerts fired: 2 critical / 3 warning / 0 info · 4 resolved · 1 active at exit"
	if !strings.Contains(got, want) {
		t.Fatalf("health line missing or wrong:\n%s", got)
	}
}

func TestFormatTelemetryEventCounts(t *testing.T) {
	tel := &obs.Telemetry{
		Generations: []obs.GenTelemetry{{Generation: 0, Tasks: 1}},
		Metrics: obs.Snapshot{Counters: map[string]uint64{
			"a4nn_events_emitted_total":             1234,
			"a4nn_events_dropped_total":             56,
			"a4nn_events_subscribers_evicted_total": 2,
		}},
	}
	got := FormatTelemetry(tel)
	if !strings.Contains(got, "events: 1234 emitted · 56 dropped to slow subscribers · 2 subscribers evicted · 0 file errors") {
		t.Fatalf("events line missing or wrong:\n%s", got)
	}
}

func TestFormatLayerProfile(t *testing.T) {
	snap := &obs.Snapshot{
		Counters: map[string]uint64{
			`a4nn_nn_layer_calls_total{layer="conv3x3"}`: 200,
			`a4nn_nn_layer_flops_total{layer="conv3x3"}`: 4e9,
			`a4nn_nn_layer_calls_total{layer="relu"}`:    200,
			`a4nn_nn_layer_flops_total{layer="relu"}`:    1e8,
		},
		Gauges: map[string]float64{
			"a4nn_tensor_matmul_calls": 600,
			"a4nn_tensor_matmul_flops": 3.5e9,
		},
		Histograms: map[string]obs.HistogramSnapshot{
			`a4nn_nn_layer_forward_seconds{layer="conv3x3"}`:  {Count: 200, Sum: 6},
			`a4nn_nn_layer_backward_seconds{layer="conv3x3"}`: {Count: 200, Sum: 9},
			`a4nn_nn_layer_forward_seconds{layer="relu"}`:     {Count: 200, Sum: 0.5},
			`a4nn_nn_layer_backward_seconds{layer="relu"}`:    {Count: 200, Sum: 0.5},
		},
	}
	ps := LayerProfiles(snap)
	if len(ps) != 2 || ps[0].Layer != "conv3x3" || ps[1].Layer != "relu" {
		t.Fatalf("profiles %+v", ps)
	}
	if ps[0].TotalSeconds() != 15 || ps[0].Calls != 200 || ps[0].FLOPs != 4e9 {
		t.Fatalf("conv3x3 profile %+v", ps[0])
	}
	got := FormatLayerProfile(snap)
	for _, want := range []string{
		"conv3x3", "relu", "93.8%", // 15 of 16 total seconds
		"total layer time: 16.000 s",
		"GEMM kernels: 600 calls, 3.5 GFLOPs",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("profile output missing %q:\n%s", want, got)
		}
	}
}

func TestFormatLayerProfileEmpty(t *testing.T) {
	if got := FormatLayerProfile(&obs.Snapshot{}); !strings.Contains(got, "no layer profile") {
		t.Fatalf("empty profile rendered %q", got)
	}
	if got := FormatLayerProfile(nil); !strings.Contains(got, "no layer profile") {
		t.Fatalf("nil snapshot rendered %q", got)
	}
}
