package streaming

import (
	"testing"

	"edgescope/internal/netmodel"
	"edgescope/internal/qoe"
	"edgescope/internal/rng"
)

func run(seed uint64, cfg Config) Summary {
	return Summarize(Simulate(rng.New(seed), cfg, 50))
}

func TestBaselineAround400ms(t *testing.T) {
	// Paper: without jitter buffer or transcoding the streaming delay stays
	// ~400 ms.
	s := run(1, Config{Access: netmodel.WiFi, Resolution: R1080p})
	if s.MedianMs < 330 || s.MedianMs > 480 {
		t.Fatalf("baseline delay = %.0f ms, want ~400", s.MedianMs)
	}
}

func TestNetworkIsNotTheBottleneck(t *testing.T) {
	// Paper: network ≈ 50 ms; capture + software stack dominate.
	s := run(2, Config{Access: netmodel.WiFi, Resolution: R1080p})
	b := s.Breakdown
	network := b.UplinkNet + b.DownNet
	if network > 90 {
		t.Fatalf("network stages = %.0f ms, paper reports ~50", network)
	}
	if b.Capture < 100 || b.Capture > 180 {
		t.Fatalf("capture = %.0f ms, paper reports ~140", b.Capture)
	}
	if b.Capture+b.Render <= network {
		t.Fatal("capture+render should dominate the network")
	}
}

func TestEdgeImprovementModest(t *testing.T) {
	// Paper: edge saves at most ~24% of streaming delay vs farthest cloud.
	edge := run(3, Config{Access: netmodel.FiveG, Resolution: R1080p})
	far := run(4, Config{Access: netmodel.FiveG, Resolution: R1080p, Backend: qoe.Backends()[3]})
	if far.MedianMs <= edge.MedianMs {
		t.Fatal("farther cloud should be slower")
	}
	saving := 1 - edge.MedianMs/far.MedianMs
	if saving < 0.03 || saving > 0.30 {
		t.Fatalf("edge saving = %.0f%%, paper reports up to 24%%", saving*100)
	}
}

func TestLowerResolutionFaster(t *testing.T) {
	// Paper: 1080p→720p saves ~67 ms (transmission + rendering).
	hi := run(5, Config{Access: netmodel.WiFi, Resolution: R1080p})
	lo := run(5, Config{Access: netmodel.WiFi, Resolution: R720p})
	saved := hi.MedianMs - lo.MedianMs
	if saved < 25 || saved > 110 {
		t.Fatalf("720p saving = %.0f ms, paper reports ~67", saved)
	}
}

func TestTranscodeDoublesDelay(t *testing.T) {
	// Paper: transcoding adds ~400 ms (2× total under WiFi).
	base := run(6, Config{Access: netmodel.WiFi, Resolution: R1080p})
	trans := run(6, Config{Access: netmodel.WiFi, Resolution: R1080p, Transcode: true})
	added := trans.MedianMs - base.MedianMs
	if added < 280 || added > 500 {
		t.Fatalf("transcode overhead = %.0f ms, paper reports ~400", added)
	}
}

func TestJitterBufferErasesEdgeAdvantage(t *testing.T) {
	// Paper: with a 2 MB jitter buffer delay reaches ~2 s and the
	// edge/cloud difference becomes trivial.
	cfgE := Config{Access: netmodel.WiFi, Resolution: R1080p, JitterBufferMB: 2}
	cfgC := cfgE
	cfgC.Backend = qoe.Backends()[3]
	edge := run(7, cfgE)
	cloud := run(8, cfgC)
	if edge.MedianMs < 1500 {
		t.Fatalf("buffered delay = %.0f ms, paper reports ~2 s", edge.MedianMs)
	}
	rel := (cloud.MedianMs - edge.MedianMs) / edge.MedianMs
	if rel > 0.08 {
		t.Fatalf("buffered edge/cloud gap = %.1f%%, should be trivial", rel*100)
	}
}

func TestFFplayFasterThanMPlayer(t *testing.T) {
	// Paper: FFplay cuts ~90 ms off the streaming delay.
	mp, _ := PlayerByName("MPlayer")
	ff, _ := PlayerByName("FFplay")
	a := run(9, Config{Access: netmodel.WiFi, Resolution: R1080p, Player: mp})
	b := run(9, Config{Access: netmodel.WiFi, Resolution: R1080p, Player: ff})
	saved := a.MedianMs - b.MedianMs
	if saved < 50 || saved > 130 {
		t.Fatalf("FFplay saving = %.0f ms, paper reports ~90", saved)
	}
}

func TestLANDelta(t *testing.T) {
	// Paper: moving the server onto the LAN saves only ~40 ms — the mean
	// network stages minus a ~2 ms LAN round trip.
	s := Summarize(Simulate(rng.New(10), Config{Access: netmodel.WiFi, Resolution: R1080p}, 50))
	d := s.Breakdown.UplinkNet + s.Breakdown.DownNet - 2
	if d < 10 || d > 90 {
		t.Fatalf("LAN delta = %.0f ms, paper reports ~40", d)
	}
}

func TestResolutionHelpers(t *testing.T) {
	if R1080p.String() != "1080p" || R720p.String() != "720p" {
		t.Fatal("Resolution String broken")
	}
	if R1080p.BitrateMbps() <= R720p.BitrateMbps() {
		t.Fatal("1080p must have higher bitrate")
	}
	if _, ok := PlayerByName("VLC"); ok {
		t.Fatal("unknown player found")
	}
}

func TestSampleTotal(t *testing.T) {
	s := Sample{Capture: 1, Encode: 2, UplinkNet: 3, Server: 4, DownNet: 5, Buffer: 6, Decode: 7, Render: 8}
	if s.Total() != 36 {
		t.Fatalf("Total = %v", s.Total())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatal("empty summary should be zero")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a := Simulate(rng.New(11), Config{Access: netmodel.WiFi}, 5)
	b := Simulate(rng.New(11), Config{Access: netmodel.WiFi}, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("simulation not deterministic")
		}
	}
}
