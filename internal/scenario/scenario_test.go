package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBuiltinsValidate pins the catalogue: every built-in validates, small
// and paper are present (the legacy Scale shim depends on them), and at
// least three further scenarios exist beyond the two legacy sizings.
func TestBuiltinsValidate(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("built-ins = %v, want small, paper and >=3 more", names)
	}
	for _, must := range []string{"small", "paper", "dense-metro", "rural-sparse", "flash-crowd", "stress"} {
		sp, ok := Get(must)
		if !ok {
			t.Fatalf("built-in %q missing (have %v)", must, names)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("built-in %q invalid: %v", must, err)
		}
		if sp.Notes == "" {
			t.Errorf("built-in %q has no notes for the catalogue listing", must)
		}
	}
}

// saveSpec writes sp to path in the form Load reads.
func saveSpec(t *testing.T, path string, sp *Spec) {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, sp); err != nil {
		t.Fatalf("%s: encode: %v", sp.Name, err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJSONRoundTripIdentity is the PR's persistence pin: save→load→Validate
// is the identity for every built-in spec.
func TestJSONRoundTripIdentity(t *testing.T) {
	dir := t.TempDir()
	for _, name := range Names() {
		sp := MustGet(name)
		path := filepath.Join(dir, name+".json")
		saveSpec(t, path, sp)
		back, err := Load(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if *back != *sp {
			t.Fatalf("%s: round trip changed the spec:\n in: %+v\nout: %+v", name, sp, back)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("%s: reloaded spec invalid: %v", name, err)
		}
	}
}

// TestValidateNamesFields pins the error UX: invalid specs are rejected
// with errors that name the offending field, and a multiply-broken spec
// reports every problem in one pass.
func TestValidateNamesFields(t *testing.T) {
	valid := MustGet("small")
	cases := []struct {
		name   string
		mutate func(*Spec)
		field  string
	}{
		{"zero-users", func(s *Spec) { s.Crowd.Users = 0 }, "crowd.users"},
		{"negative-repeats", func(s *Spec) { s.Crowd.Repeats = -3 }, "crowd.repeats"},
		{"negative-mix-weight", func(s *Spec) { s.Crowd.Mix.LTE = -0.1 }, "crowd.access_mix.lte"},
		{"mix-sum-off", func(s *Spec) { s.Crowd.Mix = AccessMix{WiFi: 0.5, LTE: 0.1, FiveG: 0.1} }, "crowd.access_mix"},
		{"county-out-of-range", func(s *Spec) { s.Crowd.CountyFraction = 1.5 }, "crowd.county_fraction"},
		{"zero-throughput-sites", func(s *Spec) { s.Crowd.ThroughputSites = 0 }, "crowd.throughput_sites"},
		{"throughput-users-exceed-users", func(s *Spec) { s.Crowd.ThroughputUsers = s.Crowd.Users + 1 }, "crowd.throughput_users"},
		{"zero-nep-apps", func(s *Spec) { s.Workload.NEPApps = 0 }, "workload.nep_apps"},
		{"negative-cloud-days", func(s *Spec) { s.Workload.CloudDays = -1 }, "workload.cloud_days"},
		{"zero-qoe-samples", func(s *Spec) { s.Sizing.QoESamples = 0 }, "sizing.qoe_samples"},
		{"zero-billing-topn", func(s *Spec) { s.Sizing.BillingTopN = 0 }, "sizing.billing_top_n"},
		{"bad-name", func(s *Spec) { s.Name = "Bad Name!" }, "name"},
		{"empty-name", func(s *Spec) { s.Name = "" }, "name"},
	}
	for _, tc := range cases {
		sp := valid.Clone()
		tc.mutate(sp)
		err := sp.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error does not name field %q: %v", tc.name, tc.field, err)
		}
	}

	// Multiple defects are all reported at once.
	sp := valid.Clone()
	sp.Crowd.Users = 0
	sp.Workload.NEPDays = 0
	sp.Sizing.PredictVMs = -2
	err := sp.Validate()
	if err == nil {
		t.Fatal("multiply-broken spec accepted")
	}
	for _, field := range []string{"crowd.users", "workload.nep_days", "sizing.predict_vms"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("joined error missing %q: %v", field, err)
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"name":"x","typo_field":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestDecodeRejectsFaultBlock: a scenario carries no fault plan (chaos is a
// test input, built as a faultinject.Spec), so a spec file with a "fault"
// block fails the unknown-field check by name instead of running fault-free.
func TestDecodeRejectsFaultBlock(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, MustGet("small")); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("the built-in itself does not decode: %v", err)
	}
	withFault := strings.Replace(buf.String(), "{", `{"fault": {"drop": 0.1},`, 1)
	_, err := Decode(strings.NewReader(withFault))
	if err == nil || !strings.Contains(err.Error(), `"fault"`) {
		t.Fatalf("decoding a spec with a fault block: err = %v, want one naming \"fault\"", err)
	}
}

// TestGetReturnsClone guards the registry against caller mutation: the
// standard flow (Get then override Seed) must not corrupt the built-in.
func TestGetReturnsClone(t *testing.T) {
	a := MustGet("small")
	a.Seed = 999
	a.Crowd.Users = 1
	b := MustGet("small")
	if b.Seed == 999 || b.Crowd.Users == 1 {
		t.Fatal("mutating a Get result corrupted the registry")
	}
}

func TestRegisterRejects(t *testing.T) {
	if err := Register(MustGet("small")); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	bad := MustGet("small")
	bad.Name = "broken-reg"
	bad.Crowd.Users = 0
	if err := Register(bad); err == nil {
		t.Fatal("invalid spec registered")
	}
	if _, ok := Get("broken-reg"); ok {
		t.Fatal("invalid spec reached the registry")
	}
}

func TestResolve(t *testing.T) {
	if sp, err := Resolve("paper"); err != nil || sp.Name != "paper" {
		t.Fatalf("Resolve(paper) = %v, %v", sp, err)
	}

	// A JSON file resolves by path.
	dir := t.TempDir()
	custom := MustGet("small")
	custom.Name = "my-custom"
	custom.Seed = 7
	path := filepath.Join(dir, "custom.json")
	saveSpec(t, path, custom)
	sp, err := Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "my-custom" || sp.Seed != 7 {
		t.Fatalf("resolved file spec = %+v", sp)
	}

	// Unknown names list the catalogue.
	_, err = Resolve("no-such-scenario")
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, name := range []string{"small", "paper", "dense-metro"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list built-in %q: %v", name, err)
		}
	}

	if _, err := Resolve(""); err == nil {
		t.Fatal("empty scenario accepted")
	}
}

func TestWithDefaultsMatchesLegacyFill(t *testing.T) {
	got := CrowdSpec{}.WithDefaults()
	want := CrowdSpec{
		Users: 158, Repeats: 30,
		Mix:             AccessMix{WiFi: 0.59, LTE: 0.34, FiveG: 0.07},
		CountyFraction:  0.7,
		ThroughputUsers: 25, ThroughputSites: 20,
		ServerMbps: 1000, WiredShare: 0.2,
	}
	if got != want {
		t.Fatalf("defaults = %+v, want %+v", got, want)
	}
	// Set fields survive.
	partial := CrowdSpec{Users: 12, Repeats: 4}.WithDefaults()
	if partial.Users != 12 || partial.Repeats != 4 || partial.Mix != want.Mix {
		t.Fatalf("partial defaults = %+v", partial)
	}
}

// TestWithDefaultsKeepsExplicitZeros pins the declarative contract: once a
// spec declares its access mix (every validated spec does), an explicit
// zero CountyFraction or WiredShare is a choice — everyone co-located, no
// wired testers — and must run as written, not be swapped for the paper
// defaults.
func TestWithDefaultsKeepsExplicitZeros(t *testing.T) {
	declared := CrowdSpec{
		Users: 50, Repeats: 5,
		Mix:             AccessMix{WiFi: 0.6, LTE: 0.3, FiveG: 0.1},
		CountyFraction:  0,
		ThroughputUsers: 10, ThroughputSites: 8,
		ServerMbps: 500, WiredShare: 0,
	}
	got := declared.WithDefaults()
	if got != declared {
		t.Fatalf("declared spec rewritten by defaults:\n in: %+v\nout: %+v", declared, got)
	}
	// The full spec validates, so the zeros are a legal declarative choice.
	sp := MustGet("small")
	sp.Crowd = declared
	if err := sp.Validate(); err != nil {
		t.Fatalf("explicit-zero spec invalid: %v", err)
	}
}
