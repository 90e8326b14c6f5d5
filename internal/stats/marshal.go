package stats

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary serialization of a Sketch, for the telemetry pipeline's durable
// window snapshots. The format captures the *exact* in-memory state —
// compression, count, min/max, the compacted centroid list AND the unflushed
// buffer — without forcing a flush, so that unmarshal(marshal(sk)) continues
// the stream bit-for-bit where sk left off: subsequent Adds hit the same
// flush boundaries and produce the same centroid layout as an uninterrupted
// sketch. That exactness is what lets a recovered telemetry shard answer the
// same quantile queries, byte for byte, as the process that crashed.

// sketchBinVersion is the serialization format version. Unmarshal accepts
// exactly this version; bumping it is how the format evolves under old
// snapshot files.
const sketchBinVersion = 1

// sketchMagic guards against feeding arbitrary files to UnmarshalBinary.
var sketchMagic = [4]byte{'e', 's', 'k', sketchBinVersion}

// MarshalBinary encodes the sketch's exact state. The layout is:
//
//	magic "esk\x01" | compression f64 | count f64 | min f64 | max f64
//	| nCentroids u32 | nBuf u32 | centroids (mean,weight f64 pairs)...
//	| buf (mean,weight f64 pairs)...
//
// all little-endian. Encoding never fails (the error satisfies
// encoding.BinaryMarshaler).
func (sk *Sketch) MarshalBinary() ([]byte, error) {
	return sk.AppendBinary(nil)
}

// AppendBinary appends the MarshalBinary encoding to dst and returns the
// extended slice, so snapshot writers can reuse one buffer across many
// sketches.
func (sk *Sketch) AppendBinary(dst []byte) ([]byte, error) {
	dst = append(dst, sketchMagic[:]...)
	for _, f := range []float64{sk.compression, sk.count, sk.min, sk.max} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(sk.centroids)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(sk.buffered()))
	for _, c := range sk.centroids {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Mean))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Weight))
	}
	one := math.Float64bits(1)
	for _, m := range sk.buf {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m))
		dst = binary.LittleEndian.AppendUint64(dst, one)
	}
	for _, c := range sk.pairs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Mean))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Weight))
	}
	return dst, nil
}

// sketchBinHeader is the fixed-size prefix: magic + 4 floats + 2 counts.
const sketchBinHeader = 4 + 4*8 + 2*4

// BinarySize is the exact length of the sketch's current MarshalBinary
// encoding, so a writer packing many sketches can size its buffer once.
func (sk *Sketch) BinarySize() int {
	return sketchBinHeader + 16*(len(sk.centroids)+sk.buffered())
}

// sketchWire is the validated fixed-size prefix of a MarshalBinary encoding.
// parseSketchWire and ok together are THE decode gate: both
// UnmarshalBinary and AbsorbBinary go through them, so the two accept and
// reject exactly the same inputs.
type sketchWire struct {
	compression, count, min, max float64
	nCentroids, nBuf             int
}

func wireF64(data []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
}

// parseSketchWire checks everything that can be checked without walking the
// points: magic, exact payload size for the declared counts (so a corrupt
// count can never size an allocation), and the scalar invariants.
func parseSketchWire(data []byte) (sketchWire, error) {
	if len(data) < sketchBinHeader {
		return sketchWire{}, fmt.Errorf("stats: sketch decode: %d bytes, want >= %d", len(data), sketchBinHeader)
	}
	if [4]byte(data[:4]) != sketchMagic {
		return sketchWire{}, fmt.Errorf("stats: sketch decode: bad magic/version %q", data[:4])
	}
	h := sketchWire{
		compression: wireF64(data, 4),
		count:       wireF64(data, 12),
		min:         wireF64(data, 20),
		max:         wireF64(data, 28),
		nCentroids:  int(binary.LittleEndian.Uint32(data[36:])),
		nBuf:        int(binary.LittleEndian.Uint32(data[40:])),
	}
	want := sketchBinHeader + 16*(h.nCentroids+h.nBuf)
	if h.nCentroids < 0 || h.nBuf < 0 || len(data) != want {
		return sketchWire{}, fmt.Errorf("stats: sketch decode: %d bytes, want %d for %d centroids + %d buffered",
			len(data), want, h.nCentroids, h.nBuf)
	}
	if math.IsNaN(h.compression) || h.compression < 20 {
		return sketchWire{}, fmt.Errorf("stats: sketch decode: invalid compression %v", h.compression)
	}
	if math.IsNaN(h.count) || h.count < 0 || math.IsInf(h.count, 0) {
		return sketchWire{}, fmt.Errorf("stats: sketch decode: invalid count %v", h.count)
	}
	empty := h.nCentroids == 0 && h.nBuf == 0
	if empty != (h.count == 0) {
		return sketchWire{}, fmt.Errorf("stats: sketch decode: count %v with %d points", h.count, h.nCentroids+h.nBuf)
	}
	if empty {
		if !math.IsInf(h.min, 1) || !math.IsInf(h.max, -1) {
			return sketchWire{}, fmt.Errorf("stats: sketch decode: empty sketch with min/max %v/%v", h.min, h.max)
		}
	} else if math.IsNaN(h.min) || math.IsNaN(h.max) || math.IsInf(h.min, 0) || math.IsInf(h.max, 0) || h.min > h.max {
		return sketchWire{}, fmt.Errorf("stats: sketch decode: invalid min/max %v/%v", h.min, h.max)
	}
	return h, nil
}

// ok is the gate every wire point passes: a finite mean inside [min,max],
// a finite positive weight, and with sorted a mean no smaller than prev
// (min and max are finite whenever there are points).
func (h *sketchWire) ok(mean, weight, prev float64, sorted bool) bool {
	return mean >= h.min && mean <= h.max && weight > 0 && weight <= math.MaxFloat64 && (!sorted || mean >= prev)
}

// pointErr says why point i failed ok.
func (h *sketchWire) pointErr(i int, mean, weight float64) error {
	if !(mean >= h.min && mean <= h.max) {
		return fmt.Errorf("stats: sketch decode: point %d mean %v outside [%v,%v]", i, mean, h.min, h.max)
	}
	if !(weight > 0 && weight <= math.MaxFloat64) {
		return fmt.Errorf("stats: sketch decode: point %d weight %v", i, weight)
	}
	return fmt.Errorf("stats: sketch decode: centroid %d mean %v out of order", i, mean)
}

// readPoints checks the n wire points at off and appends them to dst in
// wire order, returning total plus their weight.
func (h *sketchWire) readPoints(dst []Centroid, total float64, data []byte, off, n int, sorted bool) ([]Centroid, float64, error) {
	prev := math.Inf(-1)
	for i := 0; i < n; i++ {
		mean, weight := wireF64(data, off+16*i), wireF64(data, off+16*i+8)
		if !h.ok(mean, weight, prev, sorted) {
			return dst, 0, h.pointErr(i, mean, weight)
		}
		prev, total = mean, total+weight
		dst = append(dst, Centroid{Mean: mean, Weight: weight})
	}
	return dst, total, nil
}

// readMeans is readPoints for points that all weigh 1 (wireUnit): it
// appends their means alone.
func (h *sketchWire) readMeans(dst []float64, total float64, data []byte, off, n int, sorted bool) ([]float64, float64, error) {
	prev := math.Inf(-1)
	for i := 0; i < n; i++ {
		mean, weight := wireF64(data, off+16*i), wireF64(data, off+16*i+8)
		if !h.ok(mean, weight, prev, sorted) {
			return dst, 0, h.pointErr(i, mean, weight)
		}
		prev, total = mean, total+weight
		dst = append(dst, mean)
	}
	return dst, total, nil
}

// bufOff is the offset of the encoding's first buffered point.
func (h *sketchWire) bufOff() int { return sketchBinHeader + 16*h.nCentroids }

// wireUnit reports whether the encoding's n points at off all weigh 1:
// then they can be buffered as their means alone.
func wireUnit(data []byte, off, n int) bool {
	for i := 0; i < n; i++ {
		if wireF64(data, off+16*i+8) != 1 {
			return false
		}
	}
	return true
}

// countMatches reconciles the points' total weight with the recorded count
// (within float accumulation slack), so a corrupt count cannot skew every
// quantile.
func (h *sketchWire) countMatches(total float64) error {
	if math.Abs(total-h.count) > 1e-6*math.Max(1, math.Abs(h.count)) {
		return fmt.Errorf("stats: sketch decode: count %v != total weight %v", h.count, total)
	}
	return nil
}

// UnmarshalBinary decodes a MarshalBinary encoding into sk, replacing its
// state. Arbitrary or corrupt input yields an error, never a panic and never
// a sketch that violates its own invariants: lengths are checked against the
// actual payload size before any allocation, every float must be finite
// where the sketch requires it, and weights must be positive. Buffered
// points that all weigh 1 decode into their means alone.
func (sk *Sketch) UnmarshalBinary(data []byte) error {
	h, err := parseSketchWire(data)
	if err != nil {
		return err
	}
	var (
		points []Centroid
		buf    []float64
		total  float64
	)
	unit := wireUnit(data, h.bufOff(), h.nBuf)
	if n := h.nCentroids; n > 0 || !unit {
		// One backing array for the centroids and any weighted buffered
		// points, split below with full slice expressions so an append to
		// the centroid list can never run into the buffered points.
		if !unit {
			n += h.nBuf
		}
		points = make([]Centroid, 0, n)
	}
	if points, total, err = h.readPoints(points, 0, data, sketchBinHeader, h.nCentroids, true); err != nil {
		return err
	}
	switch {
	case !unit:
		points, total, err = h.readPoints(points, total, data, h.bufOff(), h.nBuf, false)
	case h.nBuf > 0:
		buf, total, err = h.readMeans(make([]float64, 0, h.nBuf), total, data, h.bufOff(), h.nBuf, false)
	}
	if err != nil {
		return err
	}
	if err := h.countMatches(total); err != nil {
		return err
	}
	sk.compression = h.compression
	sk.count = h.count
	sk.min = h.min
	sk.max = h.max
	sk.centroids = points[:h.nCentroids:h.nCentroids]
	sk.buf, sk.pairs = buf, points[h.nCentroids:]
	if len(sk.pairs) == 0 {
		sk.pairs = nil
	}
	return nil
}

// AbsorbBinary folds a MarshalBinary encoding into sk exactly as
// UnmarshalBinary followed by Absorb would — the same validation, the same
// append order (centroids, then buffered points), the same deferred
// compaction — without materialising the intermediate sketch. It is what the
// cluster front-end merges sketch pages with: thousands of window rollups
// per query, each otherwise an allocation that lives for one Absorb. On
// error sk is unchanged.
func (sk *Sketch) AbsorbBinary(data []byte) error {
	h, err := parseSketchWire(data)
	if err != nil {
		return err
	}
	if h.count == 0 {
		return nil
	}
	baseBuf, basePairs := len(sk.buf), len(sk.pairs)
	var total float64
	if basePairs == 0 && wireUnit(data, sketchBinHeader, h.nCentroids+h.nBuf) {
		sk.buf, total, err = h.readMeans(sk.buf, 0, data, sketchBinHeader, h.nCentroids, true)
		if err == nil {
			sk.buf, total, err = h.readMeans(sk.buf, total, data, h.bufOff(), h.nBuf, false)
		}
	} else {
		sk.weigh()
		sk.pairs, total, err = h.readPoints(sk.pairs, 0, data, sketchBinHeader, h.nCentroids, true)
		if err == nil {
			sk.pairs, total, err = h.readPoints(sk.pairs, total, data, h.bufOff(), h.nBuf, false)
		}
	}
	if err == nil {
		err = h.countMatches(total)
	}
	if err != nil {
		if basePairs == 0 && len(sk.pairs) > 0 {
			// weigh moved the buffered means to pairs: move them back.
			for _, c := range sk.pairs[:baseBuf] {
				sk.buf = append(sk.buf, c.Mean)
			}
		}
		sk.buf, sk.pairs = sk.buf[:baseBuf], sk.pairs[:basePairs]
		return err
	}
	sk.absorbed(h.count, h.min, h.max)
	return nil
}
