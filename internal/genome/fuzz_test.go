package genome_test

import (
	"testing"

	"a4nn/internal/analyzer"
	"a4nn/internal/genome"
)

// FuzzParseGenome holds Parse to its contract on hostile record bytes (a
// record's genome and nodes_per_phase): a genome it accepts renders back
// to the string it came from, and the analyzer draws it without a panic.
// testdata/fuzz holds a node count whose bit count wrapped to the
// genome's length.
func FuzzParseGenome(f *testing.F) {
	f.Add("1011011|0110101|1110110", 4)
	f.Add("1010|0111", 3)
	f.Add("1", 1)
	f.Add("", 0)
	f.Add("00|11|0", 2)
	f.Add("0000000", -4)
	f.Fuzz(func(t *testing.T, s string, nodesPerPhase int) {
		g, err := genome.Parse(s, nodesPerPhase)
		if err != nil {
			return
		}
		if got := g.String(); got != s {
			t.Fatalf("Parse(%q, %d) renders back as %q", s, nodesPerPhase, got)
		}
		if _, err := analyzer.GenomeASCII(g); err != nil {
			t.Fatalf("GenomeASCII of accepted %q: %v", s, err)
		}
	})
}

// FuzzParseMicro holds ParseMicro to its contract: a cell it accepts
// renders to a string that parses back to the same cell.
func FuzzParseMicro(f *testing.F) {
	f.Add("0.conv3+0.max3;1.conv5+0.id;1.avg3+2.conv3")
	f.Add("0.id+0.id")
	f.Add("00.conv3+0.sep3")
	f.Add("1.conv3+0.id")
	f.Add("0.conv3+0.max3;")
	f.Add("-1.id+0.id")
	f.Fuzz(func(t *testing.T, s string) {
		g, err := genome.ParseMicro(s)
		if err != nil {
			return
		}
		back, err := genome.ParseMicro(g.String())
		if err != nil {
			t.Fatalf("ParseMicro(%q) renders as %q, which does not parse: %v", s, g.String(), err)
		}
		if back.String() != g.String() || back.Hash() != g.Hash() {
			t.Fatalf("ParseMicro(%q) = %q, re-parsed %q", s, g.String(), back.String())
		}
	})
}
