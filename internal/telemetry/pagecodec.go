package telemetry

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// The binary wire form of a SketchPage — what the cluster's internal legs
// (frontend↔node scatter pages, handoff fetch and absorb) carry. The
// sketches inside a page are already exact binary (stats.Sketch
// AppendBinary); this framing moves them as the bytes they are instead of
// base64 inside indented JSON, and closes every page with a CRC so a
// damaged leg is detected at the receiver rather than merged. Layout, all
// little-endian, strings and sketches u32-length-prefixed:
//
//	magic "espage\x00\x02"
//	| metric str | compression f64 | window_ms i64 | n_matches u32
//	| n_matches × ( start i64 | windows u32 | region str | net str | sketch bytes )
//	| crc32 (IEEE) of everything before it
//
// windows is WindowSketch.Windows: 0 a raw rollup, n ≥ 1 a sealed fold of n
// rollups. Version 1 had no such field and every match was a raw rollup; a
// v1 page fails to decode here, so a node still speaking it is a failed leg
// — a missing node, its partitions named — never a wrong answer. A cluster
// upgrades together.
//
// A page set (handoff legs move one page per metric) is
//
//	n_pages u32 | n_pages × ( page_len u64 | page )
//
// JSON is only the read-only dump of the external edge (curl against
// /sketches and /sketches/partition); SketchPage keeps its JSON tags for
// it. Nothing in the daemon reads a page back from JSON.

// SketchPageContentType names the binary page (and page set) on the wire:
// what cluster.HTTPNode sends as Accept / Content-Type and what a node
// answers with when asked.
const SketchPageContentType = "application/x-edgescope-sketch-page"

// pageMagic versions the page format; decoders accept exactly this.
var pageMagic = [8]byte{'e', 's', 'p', 'a', 'g', 'e', 0, 2}

const (
	// pageFixedBytes is a page with an empty metric and no matches: magic,
	// metric length, compression, window, match count, CRC.
	pageFixedBytes = 8 + 4 + 8 + 8 + 4 + 4
	// matchFixedBytes is a match with empty strings and an empty sketch —
	// the floor that bounds a declared match count by the bytes present.
	matchFixedBytes = 8 + 4 + 4 + 4 + 4
)

// BinarySize is the exact length of the page's AppendBinary encoding.
func (p SketchPage) BinarySize() int {
	n := pageFixedBytes + len(p.Metric)
	for _, m := range p.Matches {
		n += matchFixedBytes + len(m.Region) + len(m.Net) + len(m.Sketch)
	}
	return n
}

// AppendBinary appends the page's binary wire form to dst. Encoding never
// fails (the error satisfies encoding.BinaryAppender).
func (p SketchPage) AppendBinary(dst []byte) ([]byte, error) {
	base := len(dst)
	w := &snapWriter{b: dst}
	w.b = append(w.b, pageMagic[:]...)
	w.str(p.Metric)
	w.u64(math.Float64bits(p.Compression))
	w.i64(p.WindowMs)
	w.u32(uint32(len(p.Matches)))
	for _, m := range p.Matches {
		w.i64(m.Start)
		w.u32(uint32(m.Windows))
		w.str(m.Region)
		w.str(m.Net)
		w.u32(uint32(len(m.Sketch)))
		w.b = append(w.b, m.Sketch...)
	}
	w.u32(crc32.ChecksumIEEE(w.b[base:]))
	return w.b, nil
}

// DecodeSketchPage decodes one binary page. The checksum is verified before
// anything is parsed; the match count is bounded by the bytes present before
// anything is allocated; the payload must be consumed exactly. The returned
// page ALIASES data — every WindowSketch.Sketch is a sub-slice of it — and
// region/net strings are interned, so decoding costs O(1) allocations per
// page plus one per distinct dimension value, not one per match. Only the
// framing is checked here: the sketches are validated by whoever folds them
// (MergeSketchPages, AbsorbPages).
func DecodeSketchPage(data []byte) (SketchPage, error) {
	return decodeSketchPage(data, interner{})
}

func decodeSketchPage(data []byte, str interner) (SketchPage, error) {
	if len(data) < pageFixedBytes {
		return SketchPage{}, fmt.Errorf("telemetry: sketch page: %d bytes, too short", len(data))
	}
	if [8]byte(data[:8]) != pageMagic {
		return SketchPage{}, fmt.Errorf("telemetry: sketch page: bad magic/version %q", data[:8])
	}
	payload, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(payload) != sum {
		return SketchPage{}, fmt.Errorf("telemetry: sketch page: checksum mismatch")
	}
	r := &snapReader{b: payload, off: 8}
	p := SketchPage{Metric: str.of(r.bytes())}
	p.Compression = math.Float64frombits(r.u64())
	p.WindowMs = r.i64()
	n := int(r.u32())
	if r.fail() || n < 0 || n > (len(payload)-r.off)/matchFixedBytes {
		return SketchPage{}, fmt.Errorf("telemetry: sketch page: truncated header or match count beyond payload")
	}
	p.Matches = make([]WindowSketch, n)
	for i := range p.Matches {
		m := &p.Matches[i]
		m.Start = r.i64()
		m.Windows = int(r.u32())
		m.Region = str.of(r.bytes())
		m.Net = str.of(r.bytes())
		m.Sketch = r.bytes()
	}
	if r.fail() || r.off != len(payload) {
		return SketchPage{}, fmt.Errorf("telemetry: sketch page: truncated or trailing payload")
	}
	return p, nil
}

// AppendSketchPages appends a page set — the body of the handoff legs.
func AppendSketchPages(dst []byte, pages []SketchPage) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pages)))
	for _, p := range pages {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.BinarySize()))
		dst, _ = p.AppendBinary(dst) // encoding a page cannot fail
	}
	return dst
}

// DecodeSketchPages decodes a page set with DecodeSketchPage's guarantees
// per page (each carries its own CRC); the pages alias data and share one
// intern table. Counts and lengths are bounded by the bytes present, and
// the set must be consumed exactly.
func DecodeSketchPages(data []byte) ([]SketchPage, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("telemetry: sketch page set: %d bytes, too short", len(data))
	}
	n := int(binary.LittleEndian.Uint32(data))
	rest := data[4:]
	if n < 0 || n > len(rest)/(8+pageFixedBytes) {
		return nil, fmt.Errorf("telemetry: sketch page set: %d pages declared in %d bytes", n, len(rest))
	}
	pages := make([]SketchPage, n)
	intern := interner{}
	for i := range pages {
		if len(rest) < 8 {
			return nil, fmt.Errorf("telemetry: sketch page set: truncated before page %d", i)
		}
		size := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		if size > uint64(len(rest)) {
			return nil, fmt.Errorf("telemetry: sketch page set: page %d declares %d bytes, %d left", i, size, len(rest))
		}
		p, err := decodeSketchPage(rest[:size], intern)
		if err != nil {
			return nil, fmt.Errorf("page %d of %d: %w", i, n, err)
		}
		pages[i], rest = p, rest[size:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("telemetry: sketch page set: %d trailing bytes", len(rest))
	}
	return pages, nil
}
