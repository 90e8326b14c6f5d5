package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"edgescope/internal/scenario"
)

var (
	suiteOnce sync.Once
	suite     *Suite
	artifacts []ArtifactResult
)

// newSmall is the one way this package's tests build a suite: the "small"
// built-in scenario at the given seed.
func newSmall(t testing.TB, seed uint64) *Suite {
	t.Helper()
	sp := scenario.MustGet("small")
	sp.Seed = seed
	s, err := NewSuiteFromSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// smallSuite returns the package's shared suite and its 21 paper artifacts
// from one serial pass, in paper order.
func smallSuite(t *testing.T) (*Suite, []ArtifactResult) {
	t.Helper()
	suiteOnce.Do(func() {
		suite = newSmall(t, 1)
		artifacts = builtArtifacts(t, suite, false)
	})
	return suite, artifacts
}

// builtArtifacts runs a serial pass and drops the substrate-build rows.
func builtArtifacts(t *testing.T, s *Suite, includeExt bool) []ArtifactResult {
	t.Helper()
	results, err := s.RunArtifacts(context.Background(), 1, nil, includeExt)
	if err != nil {
		t.Fatal(err)
	}
	var out []ArtifactResult
	for _, r := range results {
		if r.Artifact != nil {
			out = append(out, r)
		}
	}
	return out
}

func TestAllExperimentsProduceArtifacts(t *testing.T) {
	_, as := smallSuite(t)
	if len(as) != 21 {
		t.Fatalf("artifacts = %d, want 21 (every table and figure)", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.ID == "" || a.Desc == "" || a.Artifact == nil {
			t.Fatalf("incomplete artifact %+v", a)
		}
		if seen[a.ID] {
			t.Fatalf("duplicate artifact ID %s", a.ID)
		}
		seen[a.ID] = true
	}
	for _, want := range []string{"table1", "table2", "fig2a", "fig2b", "table3", "table4",
		"fig3", "fig4", "fig5", "table5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "table6", "table7"} {
		if !seen[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
}

func TestArtifactsRenderAndExport(t *testing.T) {
	_, as := smallSuite(t)
	for _, a := range as {
		var buf bytes.Buffer
		if err := a.Artifact.Render(&buf); err != nil {
			t.Fatalf("%s render: %v", a.ID, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s rendered nothing", a.ID)
		}
		var csv bytes.Buffer
		if err := a.Artifact.WriteCSV(&csv); err != nil {
			t.Fatalf("%s csv: %v", a.ID, err)
		}
		if !strings.Contains(csv.String(), ",") {
			t.Fatalf("%s csv has no columns", a.ID)
		}
	}
}

func TestSuiteCachesSubstrates(t *testing.T) {
	s, _ := smallSuite(t)
	if s.NEPTrace() != s.NEPTrace() {
		t.Fatal("NEP trace not cached")
	}
	if s.Campaign() != s.Campaign() {
		t.Fatal("campaign not cached")
	}
	if s.LatencyStore().Len() == 0 {
		t.Fatal("no latency observations")
	}
}

func TestFigure2aTableShape(t *testing.T) {
	s, _ := smallSuite(t)
	tbl := s.Figure2a()
	if len(tbl.Rows) != 3 { // WiFi, LTE, 5G
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if len(tbl.Headers) != 5 {
		t.Fatalf("headers = %d", len(tbl.Headers))
	}
}

func TestDeterministicAcrossSuites(t *testing.T) {
	a := newSmall(t, 9).Table1()
	b := newSmall(t, 9).Table1()
	var ba, bb bytes.Buffer
	if err := a.Render(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.Render(&bb); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Fatal("Table1 not deterministic")
	}
}

func TestExtensionsProduceArtifacts(t *testing.T) {
	s, _ := smallSuite(t)
	var exts []ArtifactResult
	for _, a := range builtArtifacts(t, s, true) {
		if strings.HasPrefix(a.ID, "ext-") {
			exts = append(exts, a)
		}
	}
	if len(exts) != 5 {
		t.Fatalf("extensions = %d, want 5", len(exts))
	}
	for _, a := range exts {
		var buf bytes.Buffer
		if err := a.Artifact.Render(&buf); err != nil {
			t.Fatalf("%s render: %v", a.ID, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s rendered nothing", a.ID)
		}
	}
}

func TestExtDensityMonotone(t *testing.T) {
	s, _ := smallSuite(t)
	tbl := s.ExtDensity()
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	// Denser deployments must not increase the median RTT; MEC is fastest.
	rtt := func(row []string) float64 {
		var v float64
		if _, err := fmt.Sscanf(row[2], "%f", &v); err != nil {
			t.Fatalf("bad rtt cell %q", row[2])
		}
		return v
	}
	sparse, today, denser, mec := rtt(tbl.Rows[0]), rtt(tbl.Rows[1]), rtt(tbl.Rows[2]), rtt(tbl.Rows[3])
	if !(mec < denser && denser <= today && today <= sparse) {
		t.Fatalf("density ordering broken: sparse %.1f today %.1f denser %.1f mec %.1f",
			sparse, today, denser, mec)
	}
}

func TestExtMigrationImproves(t *testing.T) {
	s, _ := smallSuite(t)
	tbl := s.ExtMigration()
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		var before, after float64
		if _, err := fmt.Sscanf(row[2], "%f", &before); err != nil {
			t.Fatalf("bad cell %q", row[2])
		}
		if _, err := fmt.Sscanf(row[3], "%f", &after); err != nil {
			t.Fatalf("bad cell %q", row[3])
		}
		if after > before {
			t.Fatalf("migration increased the gap: %v → %v", before, after)
		}
	}
}
