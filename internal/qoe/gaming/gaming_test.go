package gaming

import (
	"math"
	"testing"

	"edgescope/internal/netmodel"
	"edgescope/internal/qoe"
	"edgescope/internal/rng"
)

func run(seed uint64, cfg Config) Summary {
	return Summarize(Simulate(rng.New(seed), cfg, 50))
}

func TestDefaultEdgeUnder100ms(t *testing.T) {
	// Paper: nearby backends + WiFi ⇒ <100 ms response delay (≈91 ms edge).
	s := run(1, Config{Access: netmodel.WiFi})
	if s.MedianMs < 75 || s.MedianMs > 110 {
		t.Fatalf("edge WiFi median = %.0f ms, want ~91", s.MedianMs)
	}
}

func TestFartherCloudsSlower(t *testing.T) {
	// Paper Fig 6a: Cloud-3 ≈ 145 ms; distance lengthens delay by up to 60 ms.
	backends := qoe.Backends()
	var meds []float64
	for i, b := range backends {
		s := run(uint64(10+i), Config{Access: netmodel.WiFi, Backend: b})
		meds = append(meds, s.MedianMs)
	}
	for i := 1; i < len(meds); i++ {
		if meds[i] <= meds[i-1] {
			t.Fatalf("medians not increasing with distance: %v", meds)
		}
	}
	if meds[3] < 115 || meds[3] > 175 {
		t.Fatalf("Cloud-3 median = %.0f ms, want ~145", meds[3])
	}
	if gap := meds[3] - meds[0]; gap < 25 || gap > 80 {
		t.Fatalf("edge→Cloud-3 gap = %.0f ms, paper reports up to ~60", gap)
	}
}

func TestServerStageDominatesOnEdge(t *testing.T) {
	// Paper: on the nearest edge the ~70 ms server stage, not the network,
	// is the bottleneck.
	s := run(2, Config{Access: netmodel.WiFi})
	b := s.Breakdown
	if b.Server < b.Uplink+b.Downlink {
		t.Fatalf("server %.0f ms should dominate network %.0f ms on edge",
			b.Server, b.Uplink+b.Downlink)
	}
	if b.Server < 45 || b.Server > 80 {
		t.Fatalf("server stage = %.0f ms, want ~60-70", b.Server)
	}
	if b.Decode > 10 {
		t.Fatalf("decode = %.1f ms, paper reports <10 ms", b.Decode)
	}
}

func TestDeviceDifferencesSmall(t *testing.T) {
	// Paper Fig 6b: Note 10+ is slightly better but differences are small
	// because HW decode is fast everywhere.
	var meds []float64
	for i, d := range Devices() {
		s := run(uint64(20+i), Config{Access: netmodel.WiFi, Device: d})
		meds = append(meds, s.MedianMs)
	}
	for i := 1; i < len(meds); i++ {
		if math.Abs(meds[i]-meds[0]) > 15 {
			t.Fatalf("device deltas too large: %v", meds)
		}
	}
}

func TestPingusSlowestGame(t *testing.T) {
	// Paper Fig 6c: Pingus has slightly higher delay and jitter.
	games := Games()
	var pingus, tanks Summary
	for i, g := range games {
		s := run(uint64(30+i), Config{Access: netmodel.WiFi, Game: g})
		switch g.Name {
		case "Pingus":
			pingus = s
		case "BattleTanks":
			tanks = s
		}
	}
	if pingus.MedianMs <= tanks.MedianMs {
		t.Fatalf("Pingus (%.0f) should be slower than BattleTanks (%.0f)",
			pingus.MedianMs, tanks.MedianMs)
	}
	if pingus.P95Ms-pingus.MedianMs <= tanks.P95Ms-tanks.MedianMs {
		t.Fatal("Pingus should show more jitter")
	}
}

func TestGPURenderingSaves(t *testing.T) {
	// Paper: GPU rendering cuts ~10-20 ms.
	base := run(3, Config{Access: netmodel.WiFi})
	gpu := run(3, Config{Access: netmodel.WiFi, GPURendering: true})
	saved := base.MedianMs - gpu.MedianMs
	if saved < 8 || saved > 25 {
		t.Fatalf("GPU saving = %.0f ms, want ~15", saved)
	}
}

func TestMoreCoresDoNotHelp(t *testing.T) {
	// Paper: the game loop is single-threaded; extra vCPUs sit idle.
	few := run(4, Config{Access: netmodel.WiFi, ServerCores: 2})
	many := run(4, Config{Access: netmodel.WiFi, ServerCores: 16})
	if math.Abs(few.MedianMs-many.MedianMs) > 6 {
		t.Fatalf("core count changed delay: 2 cores %.0f vs 16 cores %.0f",
			few.MedianMs, many.MedianMs)
	}
}

func TestLTEWorseThanWiFi(t *testing.T) {
	wifi := run(5, Config{Access: netmodel.WiFi})
	lte := run(5, Config{Access: netmodel.LTE})
	if lte.MedianMs <= wifi.MedianMs {
		t.Fatalf("LTE (%.0f) should be slower than WiFi (%.0f)", lte.MedianMs, wifi.MedianMs)
	}
}

func TestSampleTotalIsSumOfStages(t *testing.T) {
	s := Sample{Input: 1, Uplink: 2, Server: 3, Encode: 4, Downlink: 5, Decode: 6, Display: 7}
	if s.Total() != 28 {
		t.Fatalf("Total = %v", s.Total())
	}
}

func TestLookupHelpers(t *testing.T) {
	if _, ok := GameByName("Flare"); !ok {
		t.Fatal("Flare missing")
	}
	if _, ok := GameByName("Doom"); ok {
		t.Fatal("unknown game found")
	}
	if _, ok := DeviceByName("Nexus6"); !ok {
		t.Fatal("Nexus6 missing")
	}
	if _, ok := DeviceByName("iPhone"); ok {
		t.Fatal("unknown device found")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s != (Summary{}) {
		t.Fatal("empty summary should be zero")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a := Simulate(rng.New(9), Config{Access: netmodel.WiFi}, 10)
	b := Simulate(rng.New(9), Config{Access: netmodel.WiFi}, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("simulation not deterministic")
		}
	}
}
