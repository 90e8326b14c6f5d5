package qoe

import (
	"testing"

	"edgescope/internal/netmodel"
	"edgescope/internal/rng"
)

func TestBackendsInventory(t *testing.T) {
	bs := Backends()
	if len(bs) != 4 {
		t.Fatalf("backends = %d, want 4 (1 edge + 3 clouds)", len(bs))
	}
	if bs[0].Class != netmodel.EdgeSite {
		t.Fatal("first backend must be the edge VM")
	}
	for i := 1; i < 4; i++ {
		if bs[i].Class != netmodel.CloudSite {
			t.Fatalf("backend %d should be cloud", i)
		}
		if bs[i].DistanceKm <= bs[i-1].DistanceKm {
			t.Fatal("backends must be ordered by distance")
		}
	}
}

func TestRTTTableShape(t *testing.T) {
	r := rng.New(1)
	rows := RTTTable(r, 4)
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 3 access × 4 backends", len(rows))
	}
	for _, a := range []netmodel.Access{netmodel.WiFi, netmodel.LTE, netmodel.FiveG} {
		var prev float64
		for _, b := range Backends() {
			m, ok := MeanRTT(rows, a, b.Name)
			if !ok {
				t.Fatalf("missing cell %v/%s", a, b.Name)
			}
			if m <= prev {
				t.Fatalf("%v: RTT to %s (%.1f) not above previous (%.1f)", a, b.Name, m, prev)
			}
			prev = m
		}
	}
	// Paper Table 5: WiFi edge ≈ 11.4 ms, LTE edge ≈ 22.2 ms.
	if m, _ := MeanRTT(rows, netmodel.WiFi, "Edge"); m < 7 || m > 17 {
		t.Fatalf("WiFi edge RTT = %.1f, want ~11.4", m)
	}
	if m, _ := MeanRTT(rows, netmodel.LTE, "Edge"); m < 16 || m > 45 {
		t.Fatalf("LTE edge RTT = %.1f, want ~22-34", m)
	}
	// LTE is slower than WiFi for each backend.
	for _, b := range Backends() {
		w, _ := MeanRTT(rows, netmodel.WiFi, b.Name)
		l, _ := MeanRTT(rows, netmodel.LTE, b.Name)
		if l <= w {
			t.Fatalf("%s: LTE RTT %.1f not above WiFi %.1f", b.Name, l, w)
		}
	}
}

func TestRTTTableDefaultLocations(t *testing.T) {
	rows := RTTTable(rng.New(2), 0)
	if len(rows) != 12 {
		t.Fatal("default locations should still produce a full table")
	}
}

func TestMeanRTTMissing(t *testing.T) {
	if _, ok := MeanRTT(nil, netmodel.WiFi, "nope"); ok {
		t.Fatal("MeanRTT on empty rows should report missing")
	}
}
