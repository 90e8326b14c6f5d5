// Package streaming simulates the paper's live-streaming QoE experiment
// (§3.3.2): an RTMP pipeline where a sender UE captures and encodes video,
// pushes it to an edge/cloud relay (optionally transcoding), and a receiver
// UE pulls, decodes and renders the stream. The measured metric is the
// streaming delay — wall-clock event to on-screen display — reproduced per
// network, resolution, transcoding and jitter-buffer setting (Figure 7),
// with the breakdown showing the paper's conclusion: capture and the
// software stack, not the network, dominate.
package streaming

import (
	"edgescope/internal/netmodel"
	"edgescope/internal/qoe"
	"edgescope/internal/rng"
	"edgescope/internal/stats"
)

// Resolution of the streamed video.
type Resolution int

// Supported resolutions.
const (
	R1080p Resolution = iota
	R720p
)

// String names the resolution.
func (r Resolution) String() string {
	if r == R1080p {
		return "1080p"
	}
	return "720p"
}

// BitrateMbps returns the encoded stream bitrate (the paper streams 1080p
// at ~5 Mbps).
func (r Resolution) BitrateMbps() float64 {
	if r == R1080p {
		return 5
	}
	return 2.5
}

// Player profiles the receiver-side pull/display software. The paper found
// switching MPlayer to FFplay cuts ~90 ms of player-internal buffering.
type Player struct {
	Name       string
	InternalMs float64
}

// Players returns the two receiver players compared in the paper.
func Players() []Player {
	return []Player{
		{Name: "MPlayer", InternalMs: 150},
		{Name: "FFplay", InternalMs: 60},
	}
}

// PlayerByName returns the named player profile; ok is false when unknown.
func PlayerByName(name string) (Player, bool) {
	for _, p := range Players() {
		if p.Name == name {
			return p, true
		}
	}
	return Player{}, false
}

// Config describes one experiment cell of Figure 7. Sender and receiver are
// in the same city (the paper's online-education scenario); both hops
// traverse the same access network to the backend.
type Config struct {
	Access     netmodel.Access
	Backend    qoe.Backend
	Resolution Resolution
	// Transcode re-encodes on the server (720p→1080p in the paper's
	// "WiFi-trans" condition), adding transcoding plus segment-wait time.
	Transcode bool
	// JitterBufferMB enables a receiver-side jitter buffer; the paper's
	// 2 MB buffer pushes the delay to ~2 s and erases the edge advantage.
	JitterBufferMB float64
	// Player is the receiver software; defaults to MPlayer.
	Player Player
}

func (c *Config) fill() {
	if c.Backend.Name == "" {
		c.Backend = qoe.Backends()[0]
	}
	if c.Player.Name == "" {
		c.Player, _ = PlayerByName("MPlayer")
	}
}

// Sample is one measured event with its stage breakdown (ms).
type Sample struct {
	Capture   float64 // camera ISP + system software stack on the sender
	Encode    float64 // sender-side encoding
	UplinkNet float64 // RTMP push: propagation + chunk transmission
	Server    float64 // relay (and transcode, when enabled)
	DownNet   float64 // pull: propagation + chunk transmission
	Buffer    float64 // receiver jitter buffer
	Decode    float64 // receiver decode
	Render    float64 // player-internal buffering + display
}

// Total returns the end-to-end streaming delay of the sample.
func (s Sample) Total() float64 {
	return s.Capture + s.Encode + s.UplinkNet + s.Server + s.DownNet + s.Buffer + s.Decode + s.Render
}

// Stage constants calibrated to the paper's breakdown: capture+render
// ≈140 ms, encode 25 ms / decode 10 ms, relay small, transcode ≈380 ms
// including segment wait, LAN delta ≈40 ms.
const (
	captureMs        = 140.0
	captureJitterMs  = 18.0
	encodeMs         = 25.0
	encodeJitterMs   = 3.0
	decodeMs         = 10.0
	decodeJitterMs   = 1.5
	relayMs          = 10.0
	relayJitterMs    = 2.0
	transcodeMs      = 380.0
	transcodeJitter  = 45.0
	chunkDurationSec = 0.1  // RTMP chunk ≈ 100 ms of video
	resolutionRender = 40.0 // extra render cost of 1080p over 720p
)

// Simulate runs n events (the paper collected 50 per cell over 20-second
// runs) and returns their stage breakdowns.
func Simulate(r *rng.Source, cfg Config, n int) []Sample {
	cfg.fill()
	up := netmodel.BuildPath(r, cfg.Access, cfg.Backend.Class, cfg.Backend.DistanceKm)
	down := netmodel.BuildPath(r, cfg.Access, cfg.Backend.Class, cfg.Backend.DistanceKm)
	prof := netmodel.ProfileFor(cfg.Access)
	bitrate := cfg.Resolution.BitrateMbps()
	chunkKb := bitrate * 1000 * chunkDurationSec // kilobits per chunk

	out := make([]Sample, n)
	for i := range out {
		upTx := chunkKb / prof.UpMbpsMedian // ms to serialise one chunk uplink
		downTx := chunkKb / prof.DownMbpsMedian
		server := r.NormalPos(relayMs, relayJitterMs)
		if cfg.Transcode {
			server += r.NormalPos(transcodeMs, transcodeJitter)
		}
		render := r.NormalPos(cfg.Player.InternalMs, 10)
		if cfg.Resolution == R1080p {
			render += resolutionRender
		}
		var buffer float64
		if cfg.JitterBufferMB > 0 {
			// Buffer delay = time to fill ~60% of the buffer at the stream
			// bitrate (players start draining before the buffer is full).
			buffer = cfg.JitterBufferMB * 8 * 0.6 / bitrate * 1000
		}
		out[i] = Sample{
			Capture:   r.NormalPos(captureMs, captureJitterMs),
			Encode:    r.NormalPos(encodeMs, encodeJitterMs),
			UplinkNet: up.SampleRTT(r)/2 + upTx,
			Server:    server,
			DownNet:   down.SampleRTT(r)/2 + downTx,
			Buffer:    buffer,
			Decode:    r.NormalPos(decodeMs, decodeJitterMs),
			Render:    render,
		}
	}
	return out
}

// Summary aggregates samples into the statistics Figure 7 plots.
type Summary struct {
	MedianMs  float64
	P95Ms     float64
	Breakdown Sample // mean per-stage breakdown
}

// Summarize reduces a sample set.
func Summarize(samples []Sample) Summary {
	totals := make([]float64, len(samples))
	var b Sample
	for i, s := range samples {
		totals[i] = s.Total()
		b.Capture += s.Capture
		b.Encode += s.Encode
		b.UplinkNet += s.UplinkNet
		b.Server += s.Server
		b.DownNet += s.DownNet
		b.Buffer += s.Buffer
		b.Decode += s.Decode
		b.Render += s.Render
	}
	if n := float64(len(samples)); n > 0 {
		b.Capture /= n
		b.Encode /= n
		b.UplinkNet /= n
		b.Server /= n
		b.DownNet /= n
		b.Buffer /= n
		b.Decode /= n
		b.Render /= n
	}
	sum := stats.SummarizeInPlace(totals)
	return Summary{
		MedianMs:  sum.Median(),
		P95Ms:     sum.Percentile(95),
		Breakdown: b,
	}
}
