package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgescope/internal/scenario"
)

// saveSpec writes sp to path in the form scenario.Load reads.
func saveSpec(t *testing.T, path string, sp *scenario.Spec) {
	t.Helper()
	var buf bytes.Buffer
	if err := scenario.Encode(&buf, sp); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestNewSuiteFromSpecRejects(t *testing.T) {
	if _, err := NewSuiteFromSpec(nil); err == nil {
		t.Fatal("nil spec accepted")
	}
	bad := scenario.MustGet("small")
	bad.Crowd.Users = 0
	_, err := NewSuiteFromSpec(bad)
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	if !strings.Contains(err.Error(), "crowd.users") {
		t.Fatalf("error does not name the field: %v", err)
	}
}

// TestSuiteSpecIsolated pins the copy semantics: mutating the caller's spec
// after construction must not affect the suite.
func TestSuiteSpecIsolated(t *testing.T) {
	sp := scenario.MustGet("small")
	s, err := NewSuiteFromSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	sp.Crowd.Users = 1
	sp.Seed = 999
	if s.Spec.Crowd.Users == 1 || s.Seed == 999 {
		t.Fatal("suite shares the caller's spec")
	}
}

func TestResolveScenario(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	// Registry name.
	s, err := SuiteFromFlags(fs, "dense-metro", "seed", 0)
	if err != nil || s.Name() != "dense-metro" {
		t.Fatalf("name resolve = %v, %v", s, err)
	}
	// JSON file path.
	custom := scenario.MustGet("flash-crowd")
	custom.Name = "my-flash"
	path := filepath.Join(t.TempDir(), "my.json")
	saveSpec(t, path, custom)
	s, err = SuiteFromFlags(fs, path, "seed", 0)
	if err != nil || s.Name() != "my-flash" {
		t.Fatalf("file resolve = %v, %v", s, err)
	}
}

// TestSuiteFromFlagsSeedPrecedence pins the rule every binary shares: a
// -seed the user set overrides the scenario's, an unset one (whatever its
// default) keeps it, and an unknown scenario names the built-ins.
func TestSuiteFromFlagsSeedPrecedence(t *testing.T) {
	parse := func(args ...string) (*flag.FlagSet, *uint64) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		seed := fs.Uint64("seed", 1, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs, seed
	}
	custom := scenario.MustGet("dense-metro")
	custom.Seed += 41
	specSeed := custom.Seed
	path := filepath.Join(t.TempDir(), "seeded.json")
	saveSpec(t, path, custom)

	for _, c := range []struct {
		args []string
		want uint64
	}{
		{nil, specSeed},
		{[]string{"-seed", "7"}, 7},
		{[]string{"-seed", "1"}, 1}, // set to its own default still counts as set
	} {
		fs, seed := parse(c.args...)
		s, err := SuiteFromFlags(fs, path, "seed", *seed)
		if err != nil {
			t.Fatalf("args %v: %v", c.args, err)
		}
		if s.Seed != c.want || s.Spec.Seed != c.want {
			t.Fatalf("args %v: suite seed %d, spec seed %d, want %d", c.args, s.Seed, s.Spec.Seed, c.want)
		}
	}

	fs, seed := parse()
	_, err := SuiteFromFlags(fs, "huge", "seed", *seed)
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-scenario error does not list built-in %q: %v", name, err)
		}
	}
}

// TestScenarioSuitesParallelismInvariance extends the engine's headline
// determinism contract to the new built-in scenarios: a representative
// artifact slice (crowd latency, throughput, workload billing) renders
// byte-identically at any parallelism, for every scenario — the property
// that makes `reproall -scenario X > out.txt` diffable.
func TestScenarioSuitesParallelismInvariance(t *testing.T) {
	ctx := context.Background()
	subset := []string{"fig2a", "fig5", "table6"}
	for _, name := range []string{"dense-metro", "rural-sparse", "flash-crowd"} {
		t.Run(name, func(t *testing.T) {
			render := func(parallelism int) map[string][]byte {
				s, err := NewSuiteFromSpec(scenario.MustGet(name))
				if err != nil {
					t.Fatal(err)
				}
				results, err := s.RunArtifacts(ctx, parallelism, subset, false)
				if err != nil {
					t.Fatal(err)
				}
				return renderAll(t, results)
			}
			serial, parallel := render(1), render(4)
			if len(serial) != len(subset) {
				t.Fatalf("artifacts = %d, want %d", len(serial), len(subset))
			}
			for id, sb := range serial {
				if !bytes.Equal(sb, parallel[id]) {
					t.Fatalf("scenario %s artifact %s differs across parallelism", name, id)
				}
			}
		})
	}
}
