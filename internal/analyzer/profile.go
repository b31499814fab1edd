package analyzer

import (
	"fmt"
	"sort"
	"strings"

	"a4nn/internal/obs"
)

// LayerProfile aggregates one layer kind's training cost, reassembled
// from the labelled a4nn_nn_layer_* series the per-layer profiler
// exports (see internal/nn.Profiler).
type LayerProfile struct {
	Layer           string
	Calls           uint64
	ForwardSeconds  float64
	BackwardSeconds float64
	FLOPs           uint64
}

// TotalSeconds is the layer's combined forward and backward time.
func (p LayerProfile) TotalSeconds() float64 { return p.ForwardSeconds + p.BackwardSeconds }

// layerLabel extracts X from `prefix{layer="X"}`; ok is false when the
// name is not such a series.
func layerLabel(name, prefix string) (string, bool) {
	rest, found := strings.CutPrefix(name, prefix+`{layer="`)
	if !found {
		return "", false
	}
	return strings.TrimSuffix(rest, `"}`), true
}

// LayerProfiles reassembles per-layer profiles from a metrics snapshot,
// sorted by descending total time. Empty when the run was not profiled.
func LayerProfiles(snap *obs.Snapshot) []LayerProfile {
	if snap == nil {
		return nil
	}
	byKind := make(map[string]*LayerProfile)
	at := func(kind string) *LayerProfile {
		p, ok := byKind[kind]
		if !ok {
			p = &LayerProfile{Layer: kind}
			byKind[kind] = p
		}
		return p
	}
	for name, h := range snap.Histograms {
		if kind, ok := layerLabel(name, "a4nn_nn_layer_forward_seconds"); ok {
			at(kind).ForwardSeconds = h.Sum
		} else if kind, ok := layerLabel(name, "a4nn_nn_layer_backward_seconds"); ok {
			at(kind).BackwardSeconds = h.Sum
		}
	}
	for name, v := range snap.Counters {
		if kind, ok := layerLabel(name, "a4nn_nn_layer_calls_total"); ok {
			at(kind).Calls = v
		} else if kind, ok := layerLabel(name, "a4nn_nn_layer_flops_total"); ok {
			at(kind).FLOPs = v
		}
	}
	out := make([]LayerProfile, 0, len(byKind))
	for _, p := range byKind {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalSeconds() != out[j].TotalSeconds() {
			return out[i].TotalSeconds() > out[j].TotalSeconds()
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// FormatLayerProfile renders the per-layer training cost breakdown of
// a profiled run (cmd/a4nn -profile-layers) — where the wall time and
// the FLOPs actually went, layer kind by layer kind.
func FormatLayerProfile(snap *obs.Snapshot) string {
	profiles := LayerProfiles(snap)
	if len(profiles) == 0 {
		return "no layer profile: run cmd/a4nn with -profile-layers and real training (-data)\n"
	}
	var total float64
	for _, p := range profiles {
		total += p.TotalSeconds()
	}
	var rows [][]string
	for _, p := range profiles {
		share := 0.0
		if total > 0 {
			share = 100 * p.TotalSeconds() / total
		}
		rows = append(rows, []string{
			p.Layer,
			fmt.Sprint(p.Calls),
			fmt.Sprintf("%.3f", p.ForwardSeconds),
			fmt.Sprintf("%.3f", p.BackwardSeconds),
			fmt.Sprintf("%.1f%%", share),
			fmt.Sprintf("%.1f", float64(p.FLOPs)/1e9),
		})
	}
	var sb strings.Builder
	sb.WriteString(FormatTable(
		[]string{"layer", "calls", "fwd s", "bwd s", "time", "GFLOPs"}, rows))
	fmt.Fprintf(&sb, "\ntotal layer time: %.3f s", total)
	if calls := snap.Gauges["a4nn_tensor_matmul_calls"]; calls > 0 {
		fmt.Fprintf(&sb, " · GEMM kernels: %.0f calls, %.1f GFLOPs",
			calls, snap.Gauges["a4nn_tensor_matmul_flops"]/1e9)
	}
	sb.WriteString("\n")
	return sb.String()
}
