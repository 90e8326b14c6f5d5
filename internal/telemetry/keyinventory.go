package telemetry

import (
	"fmt"
	"math"
	"slices"
)

// The key inventory (Ingestor.Keys, GET /keys) in its two wire forms.
//
// Between processes — a node answering the frontend's scatter leg — it moves
// as a binary, CRC-trailed list, framed like a sketch page. Layout, all
// little-endian, strings u32-length-prefixed:
//
//	magic "eskeys\x00\x01" | n u32
//	| n × ( metric str | region str | net str | count f64 )
//	| crc32 (IEEE) of everything before it
//
// The keys are in Key.Compare order, each once; a decoder rejects anything
// else, so a node that answers out of order, twice, damaged or in any other
// form is a failed leg, never a wrong inventory.
//
// At the external edge (curl, the frontend's answer) it is the indented JSON
// of a []KeyCount, written by AppendKeysJSON without reflection.

// KeyInventoryContentType names the binary inventory on the wire: what
// cluster.HTTPNode sends as Accept and what a node answers with when asked.
const KeyInventoryContentType = "application/x-edgescope-keys"

// keysMagic versions the inventory format; decoders accept exactly this.
var keysMagic = [8]byte{'e', 's', 'k', 'e', 'y', 's', 0, 1}

const (
	// keysFixedBytes is an empty inventory: magic, count, CRC.
	keysFixedBytes = 8 + 4 + 4
	// keyCountFixedBytes is one entry with empty strings — the floor that
	// bounds a declared count by the bytes present.
	keyCountFixedBytes = 4 + 4 + 4 + 8
)

// AppendKeyInventory appends the binary inventory of keys to dst, growing it
// once. keys must already be sorted and unique, as Ingestor.Keys returns them.
func AppendKeyInventory(dst []byte, keys []KeyCount) []byte {
	size := keysFixedBytes
	for _, kc := range keys {
		size += keyCountFixedBytes + len(kc.Key.Metric) + len(kc.Key.Region) + len(kc.Key.Net)
	}
	base := len(dst)
	w := &snapWriter{b: slices.Grow(dst, size)}
	w.b = append(w.b, keysMagic[:]...)
	w.u32(uint32(len(keys)))
	for _, kc := range keys {
		w.key(kc.Key)
		w.u64(math.Float64bits(kc.Count))
	}
	return appendCRC(w.b, base)
}

// DecodeKeyInventory decodes a binary inventory. The checksum is verified
// before anything is parsed; the key count is bounded by the bytes present
// before anything is allocated; the payload must be consumed exactly; keys
// must be strictly ascending in Key.Compare order. Dimension strings are
// interned, so decoding costs O(1) allocations plus one per distinct value.
func DecodeKeyInventory(data []byte) ([]KeyCount, error) {
	r, _, err := openForm("key inventory", data, keysMagic, keysFixedBytes)
	if err != nil {
		return nil, err
	}
	n := int(r.u32())
	if n > (len(r.b)-r.off)/keyCountFixedBytes {
		return nil, fmt.Errorf("telemetry: key inventory: %d keys declared in %d bytes", n, len(r.b)-r.off)
	}
	str := interner{}
	keys := make([]KeyCount, n)
	for i := range keys {
		k := Key{Metric: str.of(r.bytes()), Region: str.of(r.bytes()), Net: str.of(r.bytes())}
		keys[i] = KeyCount{Key: k, Count: math.Float64frombits(r.u64())}
		if r.fail() {
			break
		}
		if i > 0 && keys[i-1].Key.Compare(k) >= 0 {
			return nil, fmt.Errorf("telemetry: key inventory: key %d (%s) not after %s", i, k, keys[i-1].Key)
		}
	}
	if r.fail() || r.off != len(r.b) {
		return nil, fmt.Errorf("telemetry: key inventory: truncated or trailing payload")
	}
	return keys, nil
}

// interner hands out one string per distinct byte sequence, so a decoded
// page or inventory allocates per distinct dimension value, not per entry.
type interner map[string]string

func (in interner) of(b []byte) string {
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	in[s] = s
	return s
}

// The indented JSON of one KeyCount, between its dimension values and count,
// exactly as json.Encoder with SetIndent("", "  ") lays out an element of a
// []KeyCount.
const (
	keyJSONOpen   = "  {\n    \"key\": {\n      \"Metric\": \""
	keyJSONRegion = "\",\n      \"Region\": \""
	keyJSONNet    = "\",\n      \"Net\": \""
	keyJSONCount  = "\"\n    },\n    \"count\": "
	keyJSONClose  = "\n  }"
	// keyJSONFixed is one element's bytes besides its strings and count,
	// the ",\n" that separates it from the next included.
	keyJSONFixed = len(keyJSONOpen+keyJSONRegion+keyJSONNet+keyJSONCount+keyJSONClose) + len(",\n")
	// maxJSONFloat bounds appendJSONFloat's output: its longest form is a
	// sign, "0.00000" and 17 significant digits, just above 1e-6.
	maxJSONFloat = 25
)

// AppendKeysJSON appends exactly the bytes json.NewEncoder with
// SetIndent("", "  ") writes for keys — trailing newline, "[]" for an empty
// slice and "null" for a nil one included — sizing dst once. It declines
// (false, dst unchanged) when a dimension value needs escaping or a count is
// not finite; the caller then encodes with encoding/json, which defines
// every byte this writes.
func AppendKeysJSON(dst []byte, keys []KeyCount) ([]byte, bool) {
	if keys == nil {
		return append(dst, "null\n"...), true
	}
	if len(keys) == 0 {
		return append(dst, "[]\n"...), true
	}
	size := len("[\n\n]\n")
	for _, kc := range keys {
		k := kc.Key
		if !plainJSON(k.Metric) || !plainJSON(k.Region) || !plainJSON(k.Net) ||
			math.IsNaN(kc.Count) || math.IsInf(kc.Count, 0) {
			return dst, false
		}
		size += keyJSONFixed + len(k.Metric) + len(k.Region) + len(k.Net) + maxJSONFloat
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, "[\n"...)
	for i, kc := range keys {
		if i > 0 {
			dst = append(dst, ",\n"...)
		}
		dst = append(dst, keyJSONOpen...)
		dst = append(dst, kc.Key.Metric...)
		dst = append(dst, keyJSONRegion...)
		dst = append(dst, kc.Key.Region...)
		dst = append(dst, keyJSONNet...)
		dst = append(dst, kc.Key.Net...)
		dst = append(dst, keyJSONCount...)
		dst = appendJSONFloat(dst, kc.Count)
		dst = append(dst, keyJSONClose...)
	}
	return append(dst, "\n]\n"...), true
}
