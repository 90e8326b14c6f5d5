package telemetry

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// fixturePages returns the handoff fixture's rtt page (6 keys × 2 windows)
// and a two-metric page set, as a node would serve them.
func fixturePages(t testing.TB) (SketchPage, []SketchPage) {
	t.Helper()
	ing := NewIngestor(Config{Shards: 3, Block: true, Window: time.Minute})
	t.Cleanup(func() { ing.Close() })
	events := handoffEvents()
	for i, e := range events[:40] {
		e.Metric, e.Value = MetricHops, float64(3+i%9)
		events = append(events, e)
	}
	if n := ing.OfferAll(events); n != len(events) {
		t.Fatalf("offered %d of %d", n, len(events))
	}
	ing.Flush()
	page, err := ing.MatchSketches(QuerySpec{Metric: MetricRTT})
	if err != nil {
		t.Fatal(err)
	}
	var set []SketchPage
	for p := 0; p < 2; p++ {
		pp, err := ing.PartitionPages(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		set = append(set, pp...)
	}
	if len(page.Matches) < 6 || len(set) < 3 {
		t.Fatalf("fixture too small: %d matches, %d set pages", len(page.Matches), len(set))
	}
	return page, set
}

func mustEncode(p SketchPage) []byte {
	b, _ := p.AppendBinary(nil)
	return b
}

// TestSketchPageBinaryRoundTrip: decode(encode(p)) is p field for field,
// sized exactly as BinarySize says, re-encodes to the same bytes, and
// aliases the input instead of copying the sketches out of it.
func TestSketchPageBinaryRoundTrip(t *testing.T) {
	page, set := fixturePages(t)
	for _, p := range append([]SketchPage{page, {Metric: "m", Matches: []WindowSketch{}}}, set...) {
		data := mustEncode(p)
		if len(data) != p.BinarySize() {
			t.Fatalf("encoded %d bytes, BinarySize says %d", len(data), p.BinarySize())
		}
		back, err := DecodeSketchPage(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the page:\n got %+v\nwant %+v", back, p)
		}
		if again := mustEncode(back); !bytes.Equal(again, data) {
			t.Fatal("re-encode of a decoded page differs")
		}
		lo, hi := uintptr(unsafe.Pointer(&data[0])), uintptr(unsafe.Pointer(&data[len(data)-1]))
		for _, m := range back.Matches {
			if at := uintptr(unsafe.Pointer(&m.Sketch[0])); at < lo || at > hi {
				t.Fatal("decoded sketch does not alias the page bytes")
			}
		}
	}

	data := AppendSketchPages([]byte("prefix"), set)[len("prefix"):]
	back, err := DecodeSketchPages(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, set) {
		t.Fatal("page set round trip changed the pages")
	}
	if empty, err := DecodeSketchPages(AppendSketchPages(nil, nil)); err != nil || len(empty) != 0 {
		t.Fatalf("empty set: %v, %d pages", err, len(empty))
	}
}

// TestSketchPageEveryBitFlipRejected: the CRC covers every byte before it
// and is itself covered by being compared, so no single-bit flip anywhere
// in a valid page decodes.
func TestSketchPageEveryBitFlipRejected(t *testing.T) {
	page, _ := fixturePages(t)
	page.Matches = page.Matches[:3] // ~1 KB: every bit is still cheap to try
	data := mustEncode(page)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			data[i] ^= 1 << bit
			if _, err := DecodeSketchPage(data); err == nil {
				t.Fatalf("flip of byte %d bit %d accepted", i, bit)
			}
			data[i] ^= 1 << bit
		}
	}
	if _, err := DecodeSketchPage(data); err != nil {
		t.Fatalf("restored page rejected: %v", err)
	}
}

// reseal recomputes a tampered page's CRC, so the framing checks behind the
// checksum are what the test reaches.
func reseal(page []byte) []byte {
	binary.LittleEndian.PutUint32(page[len(page)-4:], crc32.ChecksumIEEE(page[:len(page)-4]))
	return page
}

// TestSketchPageDecodeRejectsFraming: a well-checksummed page whose counts
// and lengths lie is rejected before its counts size anything.
func TestSketchPageDecodeRejectsFraming(t *testing.T) {
	page, set := fixturePages(t)
	good := mustEncode(page)
	countAt := 8 + 4 + len(page.Metric) + 8 + 8
	tamper := func(f func(b []byte) []byte) []byte { return reseal(f(bytes.Clone(good))) }
	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:pageFixedBytes-1],
		"bad-magic": tamper(func(b []byte) []byte { b[7] = 2; return b }),
		"huge-count": tamper(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[countAt:], 0xffffffff)
			return b
		}),
		"count+1": tamper(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[countAt:], uint32(len(page.Matches)+1))
			return b
		}),
		"count-1": tamper(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[countAt:], uint32(len(page.Matches)-1))
			return b
		}),
		"huge-metric-len": tamper(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 0x7fffffff)
			return b
		}),
		"trailing":  tamper(func(b []byte) []byte { return append(b[:len(b)-4], 0, 0, 0, 0, 0) }),
		"truncated": tamper(func(b []byte) []byte { return b[:len(b)-9] }),
	}
	for name, data := range cases {
		if _, err := DecodeSketchPage(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The huge count must be refused by arithmetic, not by trying.
	huge := cases["huge-count"]
	if allocs := testing.AllocsPerRun(10, func() { DecodeSketchPage(huge) }); allocs > 8 {
		t.Errorf("rejecting a 4G-match count cost %v allocations", allocs)
	}

	goodSet := AppendSketchPages(nil, set)
	setCases := map[string][]byte{
		"empty":      {},
		"huge-count": append([]byte{0xff, 0xff, 0xff, 0xff}, goodSet[4:]...),
		"count+1":    append([]byte{byte(len(set) + 1), 0, 0, 0}, goodSet[4:]...),
		"count-1":    append([]byte{byte(len(set) - 1), 0, 0, 0}, goodSet[4:]...),
		"trailing":   append(bytes.Clone(goodSet), 0),
		"truncated":  goodSet[:len(goodSet)-1],
		"huge-page-len": func() []byte {
			b := bytes.Clone(goodSet)
			binary.LittleEndian.PutUint64(b[4:], 1<<62)
			return b
		}(),
	}
	for name, data := range setCases {
		if _, err := DecodeSketchPages(data); err == nil {
			t.Errorf("set %s: accepted", name)
		}
	}
	flipped := bytes.Clone(goodSet)
	flipped[len(flipped)/2] ^= 0x10
	if _, err := DecodeSketchPages(flipped); err == nil || !strings.Contains(err.Error(), "page") {
		t.Errorf("set with a damaged page: err = %v", err)
	}
}

// TestSketchPageDecodeAllocations pins the decode budget the wire change
// exists for: a handful of allocations per page (matches slice, reader,
// intern table and one string per distinct dimension value) — never one
// per match.
func TestSketchPageDecodeAllocations(t *testing.T) {
	page, _ := fixturePages(t)
	one := len(page.Matches)
	for len(page.Matches) < 2000 {
		page.Matches = append(page.Matches, page.Matches[:one]...)
	}
	data := mustEncode(page)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeSketchPage(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("decoding %d matches cost %v allocations", len(page.Matches), allocs)
	}
}

// FuzzSketchPageDecode guards the page decoder the cluster's internal legs
// feed from the network: arbitrary bytes never panic, and whatever is
// accepted re-encodes to exactly the input — there is one encoding per
// page, so nothing slips through by being framed twice differently.
func FuzzSketchPageDecode(f *testing.F) {
	page, set := fixturePages(f)
	good := mustEncode(page)
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(mustEncode(SketchPage{}))
	f.Add(mustEncode(set[0]))
	f.Add(append([]byte{}, pageMagic[:]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeSketchPage(data)
		if err != nil {
			return
		}
		if again := mustEncode(p); !bytes.Equal(again, data) {
			t.Fatalf("accepted page re-encodes differently (%d vs %d bytes)", len(again), len(data))
		}
		// A one-page set of it decodes the same way.
		framed := AppendSketchPages(nil, []SketchPage{p})
		if back, err := DecodeSketchPages(framed); err != nil || len(back) != 1 || !reflect.DeepEqual(back[0], p) {
			t.Fatalf("page set framing of an accepted page: %v", err)
		}
	})
}

// TestMergeSketchPagesChecksPageOrder: the gather merge trusts each page's
// canonical order instead of re-sorting, so it must verify it. Interleaved
// halves of one page merge to the whole page's answer; a page with two
// matches swapped is refused by an error that names the page, whichever
// position it holds.
func TestMergeSketchPagesChecksPageOrder(t *testing.T) {
	page, _ := fixturePages(t)
	spec := QuerySpec{Metric: MetricRTT}
	want, err := MergeSketchPages(spec, []SketchPage{page})
	if err != nil {
		t.Fatal(err)
	}
	even, odd := page, page
	even.Matches, odd.Matches = nil, nil
	for i, m := range page.Matches {
		if i%2 == 0 {
			even.Matches = append(even.Matches, m)
		} else {
			odd.Matches = append(odd.Matches, m)
		}
	}
	got, err := MergeSketchPages(spec, []SketchPage{odd, even})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("interleaved halves merge to %+v (err %v), whole page to %+v", got, err, want)
	}

	swapped := page
	swapped.Matches = append([]WindowSketch(nil), page.Matches...)
	last := len(swapped.Matches) - 1
	swapped.Matches[last-1], swapped.Matches[last] = swapped.Matches[last], swapped.Matches[last-1]
	for at, pages := range [][]SketchPage{{swapped, even}, {even, swapped}, {even, odd, swapped}} {
		_, err := MergeSketchPages(spec, pages)
		if name := "page " + string(rune('0'+at)) + " out of canonical order"; err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("swapped page at %d: error %v, want one naming %q", at, err, name)
		}
	}
}
