// Package webui serves a data commons over HTTP: a read-only JSON API
// plus a minimal HTML index. It is the shareable-interface counterpart of
// the paper's Dataverse deposit and Jupyter analyzer (§2.3, §2.6) — point
// it at a commons directory and colleagues can browse record trails,
// summaries, and architecture renderings from a browser or curl.
//
// Endpoints:
//
//	GET /                    HTML index with the run summary
//	GET /api/records         all record IDs
//	GET /api/records/{id}    one full record trail (JSON)
//	GET /api/records/{id}/dot   Graphviz rendering of the architecture
//	GET /api/summary?beam=low   aggregate statistics
//	GET /api/pareto?beam=low    Pareto frontier of the stored models
//
// With SetRun (or SetObserver) the server also exposes the live routes
// of a running search — /metrics, /events, /dashboard, /healthz,
// /api/query and the rest — and with SetJobs the same routes of every
// job under /api/jobs/{id}; runRoutes in routes.go lists them.
package webui

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"strings"

	"a4nn/internal/analyzer"
	"a4nn/internal/commons"
	"a4nn/internal/core"
	"a4nn/internal/genome"
	"a4nn/internal/jobs"
	"a4nn/internal/lineage"
	"a4nn/internal/obs"
)

// Server wraps a commons store with HTTP handlers.
type Server struct {
	store *commons.Store
	mux   *http.ServeMux
	runOn bool
	jobs  *jobs.Manager
	cache *ttlCache
}

// New builds a server over the store.
func New(store *commons.Store) (*Server, error) {
	if store == nil {
		return nil, fmt.Errorf("webui: nil store")
	}
	s := &Server{store: store, mux: http.NewServeMux(), cache: newTTLCache(APICacheTTL)}
	s.mux.HandleFunc("GET /api/records", s.handleRecords)
	s.mux.HandleFunc("GET /api/records/{id}", s.handleRecord)
	s.mux.HandleFunc("GET /api/records/{id}/dot", s.handleDOT)
	s.mux.HandleFunc("GET /api/summary", s.handleSummary)
	s.mux.HandleFunc("GET /api/pareto", s.handlePareto)
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	return s, nil
}

// SetRun mounts the live routes of a running search at the root, each
// only when run has the component it reads. Call at most once, before
// serving; a run with no component, or a repeated call, is a no-op.
func (s *Server) SetRun(run Run) {
	if s.runOn || run == (Run{}) {
		return
	}
	s.runOn = true
	mountRun(s.mux, run)
}

// SetObserver is SetRun for a run with an observer alone.
func (s *Server) SetObserver(o *obs.Observer) { s.SetRun(Run{Obs: o}) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON renders v with an application/json content type.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	ids, err := s.store.List()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, ids)
}

func (s *Server) handleRecord(w http.ResponseWriter, r *http.Request) {
	rec, err := s.store.GetRecord(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, rec)
}

func (s *Server) handleDOT(w http.ResponseWriter, r *http.Request) {
	rec, err := s.store.GetRecord(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	g, err := genome.Parse(rec.Genome, rec.NodesPerPhase)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	dot, err := analyzer.GenomeDOT(g, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	fmt.Fprint(w, dot)
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	beam := r.URL.Query().Get("beam")
	sum, err := s.cache.get("summary:"+beam, func() (any, error) {
		return s.store.Summarize(beam)
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, sum)
}

func (s *Server) handlePareto(w http.ResponseWriter, r *http.Request) {
	beam := r.URL.Query().Get("beam")
	front, err := s.cache.get("pareto:"+beam, func() (any, error) {
		models, err := s.loadModels(beam)
		if err != nil {
			return nil, err
		}
		return analyzer.ParetoFrontier(models), nil
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, front)
}

// loadModels reconstructs ModelResults from record trails.
func (s *Server) loadModels(beam string) ([]*core.ModelResult, error) {
	recs, err := s.store.Query(func(r *lineage.Record) bool {
		return beam == "" || r.Beam == beam
	})
	if err != nil {
		return nil, err
	}
	models := make([]*core.ModelResult, 0, len(recs))
	for _, r := range recs {
		g, err := genome.Parse(r.Genome, r.NodesPerPhase)
		if err != nil {
			return nil, fmt.Errorf("record %s: %w", r.ID, err)
		}
		models = append(models, &core.ModelResult{
			Genome:  g,
			Record:  r,
			Fitness: r.FinalFitness,
			MFLOPs:  float64(r.FLOPs) / 1e6,
		})
	}
	return models, nil
}

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>A4NN data commons</title>
<style>
body { font-family: monospace; margin: 2rem; }
table { border-collapse: collapse; }
td, th { border: 1px solid #999; padding: 0.3rem 0.6rem; text-align: left; }
</style></head><body>
<h1>A4NN data commons</h1>
<p>{{.Records}} record trails · {{.TerminatedEarly}} terminated early ·
mean fitness {{printf "%.2f" .MeanFinalFitness}}% ·
best {{printf "%.2f" .BestFinalFitness}}% ·
{{printf "%.1f" .Hours}} simulated hours</p>
<table>
<tr><th>model</th><th>beam</th><th>fitness %</th><th>MFLOPs</th><th>epochs</th><th>terminated</th><th>curve</th></tr>
{{range .Rows}}<tr>
<td><a href="/api/records/{{.ID}}">{{.ID}}</a></td>
<td>{{.Beam}}</td><td>{{printf "%.2f" .Fitness}}</td>
<td>{{printf "%.1f" .MFLOPs}}</td><td>{{.Epochs}}</td><td>{{.Terminated}}</td>
<td>{{.Spark}}</td>
</tr>{{end}}
</table>
<p>API: <a href="/api/records">/api/records</a> ·
<a href="/api/summary">/api/summary</a> ·
<a href="/api/pareto">/api/pareto</a></p>
</body></html>`))

type indexRow struct {
	ID, Beam   string
	Fitness    float64
	MFLOPs     float64
	Epochs     int
	Terminated bool
	Spark      string
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	sum, err := s.store.Summarize("")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	recs, err := s.store.All()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	data := struct {
		commons.Summary
		Hours float64
		Rows  []indexRow
	}{Summary: sum, Hours: sum.TotalSimSeconds / 3600}
	for _, rec := range recs {
		data.Rows = append(data.Rows, indexRow{
			ID:         rec.ID,
			Beam:       rec.Beam,
			Fitness:    rec.FinalFitness,
			MFLOPs:     float64(rec.FLOPs) / 1e6,
			Epochs:     rec.EpochsTrained(),
			Terminated: rec.Terminated,
			Spark:      analyzer.Sparkline(rec.FitnessHistory()),
		})
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var sb strings.Builder
	if err := indexTmpl.Execute(&sb, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	fmt.Fprint(w, sb.String())
}
