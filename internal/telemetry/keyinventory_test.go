package telemetry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"edgescope/internal/rng"
)

// e2eKeys is the end-to-end benchmark's key space as one node inventory:
// 3 metrics × 32 regions × 4 nets, sorted, with assorted counts.
func e2eKeys() []KeyCount {
	var keys []KeyCount
	for _, m := range []string{"rtt_ms", "hop_count", "tput_mbps"} {
		for r := 0; r < 32; r++ {
			for _, n := range []string{"wifi", "lte", "5g", "wired"} {
				keys = append(keys, KeyCount{Key: Key{Metric: m, Region: fmt.Sprintf("r%02d", r), Net: n}})
			}
		}
	}
	slices.SortFunc(keys, func(a, b KeyCount) int { return a.Key.Compare(b.Key) })
	for i := range keys {
		keys[i].Count = float64(i*37%1000) + float64(i%3)/4
	}
	return keys
}

// TestKeyInventoryCodec: the e2e key space round-trips exactly, and every
// single-bit flip, every truncation, an overstated count, a wrong magic,
// trailing bytes, out-of-order keys and a repeated key are all rejected.
func TestKeyInventoryCodec(t *testing.T) {
	keys := e2eKeys()
	if len(keys) != 384 {
		t.Fatalf("%d keys, want 384", len(keys))
	}
	enc := AppendKeyInventory(nil, keys)
	got, err := DecodeKeyInventory(enc)
	if err != nil || !reflect.DeepEqual(got, keys) {
		t.Fatalf("round trip: err %v, equal %v", err, reflect.DeepEqual(got, keys))
	}
	if prefixed := AppendKeyInventory([]byte("xyz"), keys); !bytes.Equal(prefixed[3:], enc) {
		t.Fatal("append after a prefix encodes differently")
	}
	if got, err := DecodeKeyInventory(AppendKeyInventory(nil, nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty inventory: %v, err %v", got, err)
	}

	for i := range enc {
		for bit := 0; bit < 8; bit++ {
			b := slices.Clone(enc)
			b[i] ^= 1 << bit
			if _, err := DecodeKeyInventory(b); err == nil {
				t.Fatalf("flip of byte %d bit %d accepted", i, bit)
			}
		}
	}
	for n := range enc {
		if _, err := DecodeKeyInventory(enc[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(enc))
		}
	}

	// A count one past the keys present is refused; one the bytes cannot
	// hold even as empty-string entries is refused before the slice is
	// made — the largest would be a ≈ 170 GiB allocation.
	cannotHold := uint32((len(enc)-keysFixedBytes)/keyCountFixedBytes + 1)
	for _, n := range []uint32{uint32(len(keys) + 1), cannotHold, math.MaxUint32} {
		b := slices.Clone(enc)
		binary.LittleEndian.PutUint32(b[8:], n)
		reseal(b)
		if _, err := DecodeKeyInventory(b); err == nil {
			t.Fatalf("count %d over %d bytes accepted", n, len(b))
		}
		if n < cannotHold {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 10 {
			DecodeKeyInventory(b)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / 10; per > 1024 {
			t.Fatalf("count %d: %d bytes allocated before the rejection", n, per)
		}
	}

	b := slices.Clone(enc)
	b[7] = 2
	if _, err := DecodeKeyInventory(reseal(b)); err == nil {
		t.Fatal("wrong magic accepted")
	}
	b = reseal(append(slices.Clone(enc), 0, 0, 0, 0))
	if _, err := DecodeKeyInventory(b); err == nil {
		t.Fatal("trailing payload accepted")
	}
	swapped := slices.Clone(keys[:3])
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if _, err := DecodeKeyInventory(AppendKeyInventory(nil, swapped)); err == nil {
		t.Fatal("out-of-order keys accepted")
	}
	repeated := []KeyCount{keys[0], keys[1], keys[1]}
	if _, err := DecodeKeyInventory(AppendKeyInventory(nil, repeated)); err == nil {
		t.Fatal("repeated key accepted")
	}
}

// FuzzKeyInventoryDecode: arbitrary bytes never panic the decoder, and
// whatever it accepts re-encodes to exactly those bytes.
func FuzzKeyInventoryDecode(f *testing.F) {
	keys := e2eKeys()[:20]
	good := AppendKeyInventory(nil, keys)
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(AppendKeyInventory(nil, nil))
	f.Add(AppendKeyInventory(nil, []KeyCount{{Key: Key{Metric: "m", Region: "北京", Net: "\xff"}, Count: math.NaN()}}))
	f.Add(AppendKeyInventory(nil, []KeyCount{keys[1], keys[0]}))
	f.Add(append([]byte{}, keysMagic[:]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, err := DecodeKeyInventory(data)
		if err != nil {
			return
		}
		if re := AppendKeyInventory(nil, keys); !bytes.Equal(re, data) {
			t.Fatalf("accepted inventory re-encodes differently:\n in %x\nout %x", data, re)
		}
	})
}

// encoderKeysJSON is the reference AppendKeysJSON must equal: what the
// /keys handlers wrote through encoding/json before it existed.
func encoderKeysJSON(keys []KeyCount) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(keys)
	return buf.Bytes(), err
}

// checkKeysJSON pins one inventory: the kernel must decline a non-finite
// count or a dimension encoding/json escapes, and whatever it accepts must
// be the encoder's bytes, appended after dst's prefix.
func checkKeysJSON(t *testing.T, keys []KeyCount) {
	t.Helper()
	mustDecline := false
	for _, kc := range keys {
		mustDecline = mustDecline || math.IsNaN(kc.Count) || math.IsInf(kc.Count, 0)
		for _, s := range []string{kc.Key.Metric, kc.Key.Region, kc.Key.Net} {
			q, _ := json.Marshal(s)
			mustDecline = mustDecline || string(q) != `"`+s+`"`
		}
	}
	prefix := []byte("prefix")
	got, ok := AppendKeysJSON(slices.Clip(prefix), keys)
	if !ok {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("declined %+v but changed dst to %q", keys, got)
		}
		return
	}
	if mustDecline {
		t.Fatalf("accepted %+v, which encoding/json escapes or cannot encode", keys)
	}
	want, err := encoderKeysJSON(keys)
	if err != nil {
		t.Fatalf("accepted %+v, which encoding/json refuses: %v", keys, err)
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("bytes differ for %+v:\n got %q\nwant %q", keys, got[len(prefix):], want)
	}
}

var (
	keysJSONDims = []string{"", "rtt_ms", "r07", "wifi", "a b", "~tilde", "quo\"te", `back\slash`,
		"<", ">", "&", "\x00", "\x1f", "\t", "\x7f", "北京", "é", "\u2028", "\u2029", "\xff", "bad\xc3"}
	keysJSONCounts = []float64{0, math.Copysign(0, -1), 1, 42, 123456789, -7, 0.5, 3.25, 1.0 / 3, 1e-7,
		9.999999e-7, 1e-6, 5e-324, 1e20, 1e21, 1.5e21, 1e300, math.MaxFloat64, -2.5e-9,
		math.NaN(), math.Inf(1), math.Inf(-1)}
)

// TestKeysJSONMatchesEncoder is the byte-identity pin of the /keys edge
// writer against json.Encoder with SetIndent("", "  "): nil, empty and
// one-element inventories, every count class and every escaping class of
// dimension, then a seeded sweep of mixed inventories. It also requires the
// kernel to accept the plain inventories /keys really serves.
func TestKeysJSONMatchesEncoder(t *testing.T) {
	checkKeysJSON(t, nil)
	checkKeysJSON(t, []KeyCount{})
	for _, c := range keysJSONCounts {
		checkKeysJSON(t, []KeyCount{{Key: Key{Metric: "rtt_ms", Region: "r00", Net: "lte"}, Count: c}})
	}
	for _, d := range keysJSONDims {
		checkKeysJSON(t, []KeyCount{{Key: Key{Metric: d, Region: "r", Net: "n"}, Count: 1}})
		checkKeysJSON(t, []KeyCount{{Key: Key{Metric: "m", Region: d, Net: "n"}, Count: 2}})
		checkKeysJSON(t, []KeyCount{{Key: Key{Metric: "m", Region: "r", Net: d}, Count: 3}})
	}
	r := rng.New(29)
	for i := 0; i < 2000; i++ {
		keys := make([]KeyCount, r.IntN(6))
		for j := range keys {
			// Mostly the plain values /keys serves, so most inventories
			// reach the byte comparison; one dimension in eight is drawn
			// from every class.
			dim := func() string {
				if r.IntN(8) == 0 {
					return keysJSONDims[r.IntN(len(keysJSONDims))]
				}
				return keysJSONDims[1+r.IntN(6)]
			}
			keys[j] = KeyCount{Key: Key{Metric: dim(), Region: dim(), Net: dim()}}
			if r.IntN(4) == 0 {
				keys[j].Count = keysJSONCounts[r.IntN(len(keysJSONCounts))]
			} else {
				keys[j].Count = math.Float64frombits(r.Uint64())
			}
		}
		checkKeysJSON(t, keys)
	}
	if _, ok := AppendKeysJSON(nil, e2eKeys()); !ok {
		t.Fatal("the e2e inventory was declined")
	}
	checkKeysJSON(t, e2eKeys())
}

// FuzzKeysJSONMatchesEncoder is TestKeysJSONMatchesEncoder's property over
// arbitrary dimensions and count bits, in two-key inventories.
func FuzzKeysJSONMatchesEncoder(f *testing.F) {
	for i, d := range keysJSONDims {
		c := keysJSONCounts[i%len(keysJSONCounts)]
		f.Add("rtt_ms", d, "lte", math.Float64bits(c), math.Float64bits(float64(i)))
	}
	f.Fuzz(func(t *testing.T, metric, region, net string, count1, count2 uint64) {
		checkKeysJSON(t, []KeyCount{
			{Key: Key{Metric: metric, Region: region, Net: net}, Count: math.Float64frombits(count1)},
			{Key: Key{Metric: net, Region: metric, Net: region}, Count: math.Float64frombits(count2)},
		})
	})
}
