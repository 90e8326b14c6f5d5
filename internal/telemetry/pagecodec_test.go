package telemetry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"edgescope/internal/stats"
)

// fixturePages returns the handoff fixture's rtt query page (6 keys, each a
// fold of 2 windows) and a two-metric page set of raw rollups, as a node
// would serve them.
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
		"bad-magic": tamper(func(b []byte) []byte { b[0] = 'E'; return b }),
		"v3":        tamper(func(b []byte) []byte { b[7] = 3; return b }),
		"v1":        pageV1(page),
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

// pageV1 encodes a page the way version 1 framed it — no windows field per
// match — with a valid CRC: what a node one release behind would answer.
func pageV1(p SketchPage) []byte {
	w := &snapWriter{b: []byte{'e', 's', 'p', 'a', 'g', 'e', 0, 1}}
	w.str(p.Metric)
	w.u64(math.Float64bits(p.Compression))
	w.i64(p.WindowMs)
	w.u32(uint32(len(p.Matches)))
	for _, m := range p.Matches {
		w.i64(m.Start)
		w.str(m.Region)
		w.str(m.Net)
		w.u32(uint32(len(m.Sketch)))
		w.b = append(w.b, m.Sketch...)
	}
	w.u32(crc32.ChecksumIEEE(w.b))
	return w.b
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
	f.Add(pageV1(page))
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
// key order instead of re-sorting, so it must verify it. Interleaved halves
// of one page merge to the whole page's answer; a page with two keys
// swapped, or one key twice, is refused by an error that names the page and
// the key, whichever position the page holds.
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

	last := len(page.Matches) - 1
	swapped, doubled := page, page
	swapped.Matches = slices.Clone(page.Matches)
	swapped.Matches[last-1], swapped.Matches[last] = swapped.Matches[last], swapped.Matches[last-1]
	doubled.Matches = append(slices.Clone(page.Matches), page.Matches[last])
	key := page.Matches[last].Region + "/" + page.Matches[last].Net
	for name, bad := range map[string]SketchPage{"swapped": swapped, "doubled": doubled} {
		for at, pages := range [][]SketchPage{{bad, even}, {even, bad}, {even, odd, bad}} {
			_, err := MergeSketchPages(spec, pages)
			want := fmt.Sprintf("page %d out of key order", at)
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), key) {
				t.Errorf("%s page at %d: error %v, want one naming %q and %s", name, at, err, want, key)
			}
		}
	}
}

// TestMergeSketchPagesAcceptsOnlyFolds: the query merge takes sealed per-key
// folds and nothing else. A raw rollup (what PartitionPages exports), a
// window count the wire cannot carry and a fold of nothing are each refused
// by an error naming page and key — so no page, however it was built, can
// inflate QueryResult.Windows beyond the rollups whose points it merged.
func TestMergeSketchPagesAcceptsOnlyFolds(t *testing.T) {
	page, set := fixturePages(t)
	spec := QuerySpec{Metric: MetricRTT}
	whole, err := MergeSketchPages(spec, []SketchPage{page})
	if err != nil {
		t.Fatal(err)
	}
	rollups := 0
	for _, m := range page.Matches {
		rollups += m.Windows
	}
	if whole.Windows != rollups || rollups != 2*len(page.Matches) {
		t.Fatalf("windows = %d, folds carry %d over %d keys", whole.Windows, rollups, len(page.Matches))
	}

	var raw SketchPage
	for _, p := range set {
		if p.Metric == MetricRTT && raw.Metric == "" {
			raw = p
		}
	}
	if len(raw.Matches) == 0 || raw.Matches[0].Windows != 0 {
		t.Fatalf("fixture: partition page = %+v", raw)
	}
	raw.Matches = raw.Matches[:1]
	empty, _ := stats.NewSketch(page.Compression).MarshalBinary()
	tamper := func(f func(m *WindowSketch)) SketchPage {
		p := page
		p.Matches = slices.Clone(page.Matches)
		f(&p.Matches[1])
		return p
	}
	key := page.Matches[1].Region + "/" + page.Matches[1].Net
	for name, tc := range map[string]struct {
		pages []SketchPage
		want  string
	}{
		"raw rollup":      {[]SketchPage{page, raw}, "page 1 match 0 (" + raw.Matches[0].Region + "/" + raw.Matches[0].Net + "): windows=0"},
		"windows zeroed":  {[]SketchPage{tamper(func(m *WindowSketch) { m.Windows = 0 })}, "page 0 match 1 (" + key + "): windows=0"},
		"negative":        {[]SketchPage{tamper(func(m *WindowSketch) { m.Windows = -3 })}, "page 0 match 1 (" + key + "): windows=-3"},
		"beyond u32":      {[]SketchPage{tamper(func(m *WindowSketch) { m.Windows = 1 << 32 })}, "page 0 match 1 (" + key + "): windows=4294967296"},
		"fold of nothing": {[]SketchPage{tamper(func(m *WindowSketch) { m.Sketch = empty })}, "page 0 match 1 (" + key + "): an empty sketch claims"},
	} {
		if _, err := MergeSketchPages(spec, tc.pages); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
		}
	}
}
