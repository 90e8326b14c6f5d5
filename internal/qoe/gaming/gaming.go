// Package gaming simulates the paper's cloud-gaming QoE experiment (§3.3.1):
// a GamingAnywhere-style pipeline where the backend VM receives player
// actions, runs the game logic, renders, encodes the frame, and streams it
// back to the user equipment for decode and display. The measured metric is
// the response delay — the interval between a touch event and the in-game
// action appearing on screen — reproduced per network condition, device and
// game (Figure 6) with a server-side breakdown matching the paper's
// analysis (the ~70 ms server stage, not the network, is the bottleneck on
// nearby edge backends).
package gaming

import (
	"edgescope/internal/netmodel"
	"edgescope/internal/qoe"
	"edgescope/internal/rng"
	"edgescope/internal/stats"
)

// Game profiles the server-side logic+render cost of one of the paper's
// three desktop games.
type Game struct {
	Name string
	// LogicRenderMs is the mean CPU time to advance the game state and
	// render one response frame on the backend.
	LogicRenderMs float64
	// JitterMs is the standard deviation of that cost.
	JitterMs float64
}

// Games returns the three titles of the experiment. Pingus carries the most
// complex game logic and shows slightly higher delay and jitter (Fig 6c).
func Games() []Game {
	return []Game{
		{Name: "BattleTanks", LogicRenderMs: 56, JitterMs: 5},
		{Name: "Pingus", LogicRenderMs: 66, JitterMs: 9},
		{Name: "Flare", LogicRenderMs: 58, JitterMs: 6},
	}
}

// GameByName returns the named game profile; ok is false when unknown.
func GameByName(name string) (Game, bool) {
	for _, g := range Games() {
		if g.Name == name {
			return g, true
		}
	}
	return Game{}, false
}

// Device profiles a user equipment: hardware-accelerated decode latency and
// input-path latency. All devices refresh at 60 Hz.
type Device struct {
	Name     string
	DecodeMs float64
	InputMs  float64
}

// Devices returns the experiment's UEs. Decode is hardware-accelerated and
// fast on all of them (<10 ms at the default 800×600), which is why device
// choice barely moves the response delay (Fig 6b).
func Devices() []Device {
	return []Device{
		{Name: "SamsungNote10+", DecodeMs: 4, InputMs: 3},
		{Name: "RedmiNote8", DecodeMs: 6.5, InputMs: 4},
		{Name: "Nexus6", DecodeMs: 9, InputMs: 5},
		{Name: "MacBookPro", DecodeMs: 3, InputMs: 2},
	}
}

// DeviceByName returns the named device profile; ok is false when unknown.
func DeviceByName(name string) (Device, bool) {
	for _, d := range Devices() {
		if d.Name == name {
			return d, true
		}
	}
	return Device{}, false
}

// Config describes one experiment cell of Figure 6.
type Config struct {
	Game    Game
	Device  Device
	Access  netmodel.Access
	Backend qoe.Backend
	// ServerCores is the VM's vCPU count. GamingAnywhere's game loop is
	// effectively single-threaded, so cores beyond the first do not reduce
	// the server stage — the paper observed all but one core near-idle.
	ServerCores int
	// GPURendering offloads rendering to a GPU, saving 10–20 ms (the
	// paper's laptop micro-experiment).
	GPURendering bool
}

// frameKB is the encoded response-frame size; an 800×600 frame is ~25 KB.
const frameKB = 25

// fill applies the paper's default setting: Flare on a Samsung Note 10+
// over WiFi with an 8-core backend.
func (c *Config) fill() {
	if c.Game.Name == "" {
		c.Game, _ = GameByName("Flare")
	}
	if c.Device.Name == "" {
		c.Device, _ = DeviceByName("SamsungNote10+")
	}
	if c.Backend.Name == "" {
		c.Backend = qoe.Backends()[0]
	}
	if c.ServerCores == 0 {
		c.ServerCores = 8
	}
}

// Sample is one measured interaction with its stage breakdown (ms).
type Sample struct {
	Input    float64 // UE input capture and injection
	Uplink   float64 // player action to the backend
	Server   float64 // game logic + rendering
	Encode   float64 // frame encoding on the backend
	Downlink float64 // frame propagation + transmission to the UE
	Decode   float64 // hardware decode on the UE
	Display  float64 // wait for the next 60 Hz refresh
}

// Total returns the end-to-end response delay of the sample.
func (s Sample) Total() float64 {
	return s.Input + s.Uplink + s.Server + s.Encode + s.Downlink + s.Decode + s.Display
}

const (
	encodeMs       = 8.0
	encodeJitterMs = 1.2
	gpuSavingMs    = 15.0
	refreshMs      = 1000.0 / 60
)

// Simulate runs n interactions (the paper collected 50 per cell) and
// returns their stage breakdowns.
func Simulate(r *rng.Source, cfg Config, n int) []Sample {
	cfg.fill()
	path := netmodel.BuildPath(r, cfg.Access, cfg.Backend.Class, cfg.Backend.DistanceKm)
	prof := netmodel.ProfileFor(cfg.Access)
	out := make([]Sample, n)
	for i := range out {
		rtt := path.SampleRTT(r)
		server := r.NormalPos(cfg.Game.LogicRenderMs, cfg.Game.JitterMs)
		if cfg.GPURendering {
			server -= gpuSavingMs
			if server < 5 {
				server = 5
			}
		}
		// The game loop is single-threaded: ServerCores does not speed it
		// up (it only caps at least one core being available).
		txMs := frameKB * 8 / prof.DownMbpsMedian // frame serialisation
		out[i] = Sample{
			Input:    r.NormalPos(cfg.Device.InputMs, 0.8),
			Uplink:   rtt / 2,
			Server:   server,
			Encode:   r.NormalPos(encodeMs, encodeJitterMs),
			Downlink: rtt/2 + txMs,
			Decode:   r.NormalPos(cfg.Device.DecodeMs, 0.6),
			Display:  r.Uniform(0, refreshMs),
		}
	}
	return out
}

// Summary aggregates samples into the statistics Figure 6 plots.
type Summary struct {
	MedianMs float64
	P95Ms    float64
	// Mean per-stage breakdown.
	Breakdown Sample
}

// Summarize reduces a sample set.
func Summarize(samples []Sample) Summary {
	totals := make([]float64, len(samples))
	var b Sample
	for i, s := range samples {
		totals[i] = s.Total()
		b.Input += s.Input
		b.Uplink += s.Uplink
		b.Server += s.Server
		b.Encode += s.Encode
		b.Downlink += s.Downlink
		b.Decode += s.Decode
		b.Display += s.Display
	}
	if n := float64(len(samples)); n > 0 {
		b.Input /= n
		b.Uplink /= n
		b.Server /= n
		b.Encode /= n
		b.Downlink /= n
		b.Decode /= n
		b.Display /= n
	}
	sum := stats.SummarizeInPlace(totals)
	return Summary{
		MedianMs:  sum.Median(),
		P95Ms:     sum.Percentile(95),
		Breakdown: b,
	}
}
