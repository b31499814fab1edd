package analyzer

import (
	"fmt"
	"strings"

	"a4nn/internal/obs"
)

// FormatTelemetry renders a run's telemetry — one row per generation
// with device utilisation, queue wait, and the prediction engine's
// epoch savings — followed by the run-level totals. It is the CLI
// counterpart of the notebook's resource-usage plots (§2.4).
func FormatTelemetry(t *obs.Telemetry) string {
	if t == nil || len(t.Generations) == 0 {
		return "no telemetry: no generation recorded in the journal (run cmd/a4nn with -store)\n"
	}
	var rows [][]string
	for _, g := range t.Generations {
		rows = append(rows, []string{
			fmt.Sprint(g.Generation),
			fmt.Sprint(g.Tasks),
			fmt.Sprintf("%.2f", g.WallSeconds/3600),
			fmt.Sprintf("%.0f%%", 100*g.Utilisation),
			fmt.Sprintf("%.0f", g.MeanQueueWaitSeconds),
			fmt.Sprint(g.EpochsTrained),
			fmt.Sprint(g.EpochsSaved),
			fmt.Sprint(g.Terminated),
			fmt.Sprint(g.Retries),
			fmt.Sprint(g.Faults),
		})
	}
	var sb strings.Builder
	sb.WriteString(FormatTable([]string{
		"gen", "tasks", "wall h", "util", "wait s", "epochs", "saved", "terminated", "retries", "faults"}, rows))
	budget := t.EpochsTrained + t.EpochsSaved
	fmt.Fprintf(&sb, "\njournal lines: %d · epochs trained: %d", t.Spans, t.EpochsTrained)
	if budget > 0 {
		fmt.Fprintf(&sb, " · saved: %d (%.1f%% of budget)", t.EpochsSaved,
			100*float64(t.EpochsSaved)/float64(budget))
	}
	fmt.Fprintf(&sb, " · terminated early: %d\n", t.Terminated)
	if emitted := t.Metrics.Counters["a4nn_events_emitted_total"]; emitted > 0 {
		fmt.Fprintf(&sb, "events: %d emitted · %d dropped to slow subscribers · %d subscribers evicted · %d file errors\n",
			emitted,
			t.Metrics.Counters["a4nn_events_dropped_total"],
			t.Metrics.Counters["a4nn_events_subscribers_evicted_total"],
			t.Metrics.Counters["a4nn_events_file_errors_total"])
	}
	info := t.Metrics.Counters[`a4nn_health_alerts_fired_total{severity="info"}`]
	warn := t.Metrics.Counters[`a4nn_health_alerts_fired_total{severity="warning"}`]
	crit := t.Metrics.Counters[`a4nn_health_alerts_fired_total{severity="critical"}`]
	if checks := t.Metrics.Counters["a4nn_health_checks_total"]; checks > 0 {
		fmt.Fprintf(&sb, "health: %d checks · alerts fired: %d critical / %d warning / %d info · %d resolved · %.0f active at exit\n",
			checks, crit, warn, info,
			t.Metrics.Counters["a4nn_health_alerts_resolved_total"],
			t.Metrics.Gauges["a4nn_health_alerts_active"])
	}
	return sb.String()
}
