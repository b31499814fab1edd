package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"a4nn/internal/analyzer"
	"a4nn/internal/core"
	"a4nn/internal/lineage"
	"a4nn/internal/obs"
)

// expectedModels is the number of networks a search evaluates: the
// starting population plus the offspring of every later generation.
func expectedModels(cfg core.Config) int {
	return cfg.NAS.PopulationSize + cfg.NAS.Offspring*(cfg.NAS.Generations-1)
}

// checkSearch verifies one finished search against its configuration and
// returns one line per violated expectation.
func checkSearch(label string, res *core.Result, cfg core.Config) []string {
	var bad []string
	fail := func(format string, args ...any) {
		bad = append(bad, label+": "+fmt.Sprintf(format, args...))
	}
	if want := expectedModels(cfg); len(res.Models) != want {
		fail("%d models evaluated, want %d", len(res.Models), want)
	}
	epochs := 0
	for _, m := range res.Models {
		if math.IsNaN(m.Fitness) || m.Fitness < 0 || m.Fitness > 100 {
			fail("model %s fitness %v outside [0,100]", m.Record.ID, m.Fitness)
		}
		n := m.Record.EpochsTrained()
		if n < 1 || n > cfg.MaxEpochs {
			fail("model %s trained %d epochs, budget %d", m.Record.ID, n, cfg.MaxEpochs)
		}
		epochs += n
	}
	if epochs != res.TotalEpochs {
		fail("records hold %d epochs, result says %d", epochs, res.TotalEpochs)
	}
	if len(analyzer.ParetoFrontier(res.Models)) == 0 {
		fail("empty Pareto front")
	}
	return bad
}

// records returns the record trails of a result's models.
func records(res *core.Result) []*lineage.Record {
	recs := make([]*lineage.Record, len(res.Models))
	for i, m := range res.Models {
		recs[i] = m.Record
	}
	return recs
}

// fingerprint condenses what a search found into one number: FNV-64a
// over the sorted lines `id|generation|epochs|fitness bits|FLOPs`. Two
// searches with equal fingerprints evaluated the same models to the same
// result, whatever ran around them and in whatever order records arrive.
func fingerprint(recs []*lineage.Record) uint64 {
	lines := make([]string, len(recs))
	for i, r := range recs {
		lines[i] = fmt.Sprintf("%s|%d|%d|%016x|%d", r.ID, r.Generation, r.EpochsTrained(),
			math.Float64bits(r.FinalFitness), r.FLOPs)
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// checkJournal verifies an events.jsonl written by a finished run: the
// sequence rises by one per line from 1, there are as many lines as the
// journal counted emits, and no append failed. Subscriber drops are a
// reported metric, not a failure.
func checkJournal(label, path string, reg *obs.Registry) (bad []string) {
	events, err := obs.ReadEvents(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: read journal: %v", label, err)}
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			bad = append(bad, fmt.Sprintf("%s: journal line %d has seq %d", label, i+1, e.Seq))
			break
		}
	}
	if emitted := reg.Counter("a4nn_events_emitted_total").Value(); uint64(len(events)) != emitted {
		bad = append(bad, fmt.Sprintf("%s: journal has %d lines, %d events emitted", label, len(events), emitted))
	}
	if errs := reg.Counter("a4nn_events_file_errors_total").Value(); errs != 0 {
		bad = append(bad, fmt.Sprintf("%s: %d journal append errors", label, errs))
	}
	return bad
}
