package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"edgescope/internal/rng"
	"edgescope/internal/telemetry"
)

// The key space every serving workload shares. It is pinned, not sampled:
// user u always sits in combo[u mod 128] of (region, net), so every seed
// gives exactly 32·4·3 = 384 rollup keys and 1000·3 = 3000 (key, user)
// dedup streams — state size must not drift with the seed or the rollup
// and snapshot costs would not be comparable across runs.
const (
	nUsers   = 1000
	nRegions = 32
	nNets    = 4
	nMetrics = 3
)

var (
	netNames = [nNets]string{"wifi", "lte", "5g", "wired"}
	// Metric mix: rtt_ms ½, hop_count ¼, tput_mbps ¼ (drawn as r mod 4).
	metricNames = [nMetrics]string{"rtt_ms", "hop_count", "tput_mbps"}
	metricKinds = [nMetrics]string{"ping", "trace", "iperf"}
)

type userDims struct{ region, net string }

// world is the seeded population: which (region, net) each user calls home.
type world struct {
	seed  uint64
	users [nUsers]userDims
}

// stream returns the named random stream of this seed. Fork advances its
// parent, so each stream forks from a fresh root: what a stream yields must
// not depend on which other streams were drawn first.
func (w *world) stream(name string) *rng.Source {
	return rng.New(w.seed).Fork("bench-e2e/" + name)
}

func newWorld(seed uint64) *world {
	w := &world{seed: seed}
	perm := w.stream("homes").Perm(nRegions * nNets)
	for u := range w.users {
		c := perm[u%len(perm)]
		w.users[u] = userDims{region: fmt.Sprintf("r%02d", c/nNets), net: netNames[c%nNets]}
	}
	return w
}

// events draws n envelopes from the named stream. TS is left at the
// placeholder; batches are stamped when they are sent.
func (w *world) events(stream string, n int) []telemetry.Envelope {
	src := w.stream(stream)
	out := make([]telemetry.Envelope, n)
	for i := range out {
		u := src.IntN(nUsers)
		m := metricOfDraw(src.IntN(4))
		var v float64
		switch m {
		case 0:
			v = src.LogNormal(math.Log(20), 0.5)
		case 1:
			v = float64(3 + src.IntN(18))
		default:
			v = src.LogNormal(math.Log(50), 0.6)
		}
		out[i] = telemetry.Envelope{
			V: telemetry.SchemaVersion, TS: tsPlaceholder,
			Kind: metricKinds[m], Metric: metricNames[m],
			User: u, Region: w.users[u].region, Net: w.users[u].net,
			// Three decimals keep the JSONL line short and realistic; the
			// rounded value is what both the daemon and the reference see.
			Value: math.Round(v*1000) / 1000,
		}
	}
	return out
}

func metricOfDraw(r int) int {
	if r < 2 {
		return 0
	}
	return r - 1
}

func metricIndex(name string) int {
	for i, m := range metricNames {
		if m == name {
			return i
		}
	}
	return -1
}

// tsPlaceholder is the 13-digit timestamp batches are encoded with; stamp
// overwrites exactly those digits. Unix milliseconds stay 13 digits wide
// until the year 2286.
const (
	tsPlaceholder = int64(1_000_000_000_000)
	tsWidth       = 13
)

// batch is one pre-encoded JSONL request body plus the byte offset of every
// event's ts digits, so sending costs a memcpy and a patch, not an encode.
type batch struct {
	body      []byte
	tsOff     []int
	events    []telemetry.Envelope
	perMetric [nMetrics]int
}

func encodeBatch(events []telemetry.Envelope) (batch, error) {
	b := batch{events: events, tsOff: make([]int, 0, len(events))}
	marker := []byte(`"ts":` + strconv.FormatInt(tsPlaceholder, 10))
	for _, e := range events {
		start := len(b.body)
		var err error
		if b.body, err = telemetry.AppendJSONL(b.body, e); err != nil {
			return batch{}, err
		}
		i := bytes.Index(b.body[start:], marker)
		if i < 0 {
			return batch{}, fmt.Errorf("encoded envelope has no %s", marker)
		}
		b.tsOff = append(b.tsOff, start+i+len(`"ts":`))
		b.perMetric[metricIndex(e.Metric)]++
	}
	return b, nil
}

// stamp copies the body into dst (reusing its capacity) with every event's
// ts set to ms, and returns it.
func (b *batch) stamp(dst []byte, ms int64) []byte {
	var digits [tsWidth]byte
	for i, v := tsWidth-1, ms; i >= 0; i, v = i-1, v/10 {
		digits[i] = byte('0' + v%10)
	}
	dst = append(dst[:0], b.body...)
	for _, off := range b.tsOff {
		copy(dst[off:off+tsWidth], digits[:])
	}
	return dst
}

// stamped returns the batch's envelopes with TS set to ms — what the
// in-process reference ingests for a body stamped with the same ms.
func (b *batch) stamped(ms int64) []telemetry.Envelope {
	out := make([]telemetry.Envelope, len(b.events))
	for i, e := range b.events {
		e.TS = ms
		out[i] = e
	}
	return out
}

// batches cuts events into consecutive encoded batches of size n.
func batches(events []telemetry.Envelope, n int) ([]batch, error) {
	var out []batch
	for len(events) > 0 {
		k := min(n, len(events))
		b, err := encodeBatch(events[:k])
		if err != nil {
			return nil, err
		}
		out = append(out, b)
		events = events[k:]
	}
	return out, nil
}

// splitByOwner regroups one batch's events by owning node, keeping their
// relative order, so a direct-to-owner preload folds every key in the same
// order a single node would.
func splitByOwner(b batch, nodes []string, ownerOf func(telemetry.Key) string) (map[string]batch, error) {
	groups := map[string][]telemetry.Envelope{}
	for _, e := range b.events {
		o := ownerOf(e.Key())
		groups[o] = append(groups[o], e)
	}
	out := make(map[string]batch, len(nodes))
	for _, n := range nodes {
		if len(groups[n]) == 0 {
			continue
		}
		nb, err := encodeBatch(groups[n])
		if err != nil {
			return nil, err
		}
		out[n] = nb
	}
	return out, nil
}
