package telemetry

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzWALSegmentReplay: readWALSegment over arbitrary bytes, as a framed and
// as a JSONL segment, must never panic, and its verdict must be consistent —
// a clean read (no error, no torn tail) must re-read identically, and a torn
// tail must truncate to a clean segment with the same records.
func FuzzWALSegmentReplay(f *testing.F) {
	e := ev(time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli(), MetricRTT, "Beijing", "WiFi", 12.5)
	for _, rec := range [][]byte{mustRecord(f, e), mustJSONL(f, e)} {
		f.Add(rec)                                          // one valid record
		f.Add(append(append([]byte{}, rec...), rec...))     // two records
		f.Add(append(append([]byte{}, rec...), rec[:3]...)) // torn tail
		f.Add(rec[:len(rec)/2])                             // torn only record
	}
	f.Add(appendRecord(nil, recEnvelope, []byte("not an envelope"))) // corrupt record
	f.Add(appendRecord(nil, recControl, []byte(`{"ctl":"drop","of":1}`)))
	f.Add([]byte("{\"v\":99}\n"))                    // corrupt line
	f.Add([]byte("\n\n\n"))                          // blanks
	f.Add([]byte{})                                  // empty file
	f.Add([]byte{0xff, 0xfe, 0x00, '\n', 'a', 0x01}) // binary garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, suffix := range []string{walSuffix, legacySuffix} {
			path := filepath.Join(dir, walPrefix+"0"+suffix)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			records, validEnd, torn, err := readWALSegment(osFS{}, path, func(Envelope) {}, func(walCtl) {})
			if err != nil {
				continue // corruption detected loudly — acceptable, no panic
			}
			if validEnd < 0 || validEnd > int64(len(data)) {
				t.Fatalf("%s: validEnd %d outside file of %d bytes", suffix, validEnd, len(data))
			}
			if torn {
				// Truncating the torn tail must yield a clean segment with
				// the same durable records — the recovery path's exact action.
				if err := os.Truncate(path, validEnd); err != nil {
					t.Fatal(err)
				}
			}
			again, _, torn2, err2 := readWALSegment(osFS{}, path, func(Envelope) {}, func(walCtl) {})
			if err2 != nil || torn2 || again != records {
				t.Fatalf("%s: re-read after handling diverged: records %d->%d torn=%v err=%v",
					suffix, records, again, torn2, err2)
			}
		}
	})
}

// FuzzWALRecordRoundTrip: every valid envelope comes back from its framed
// record field for field, as the one record of a clean segment; and
// arbitrary bytes, as a payload or as a segment, never panic the decoders.
func FuzzWALRecordRoundTrip(f *testing.F) {
	f.Add(int64(1633046400000), "ping", MetricRTT, 7, "Beijing", "WiFi", "nearest-edge", uint64(3), 12.25, []byte{})
	f.Add(int64(1), "", "m", -1, "", "", "", uint64(0), 0.0, []byte{1, 2})
	f.Add(int64(-5), "k", "", 0, "é", "\x00", "<&>", uint64(1<<63), math.Inf(1), mustRecord(f, ev(1, "m", "r", "n", 1)))
	f.Fuzz(func(t *testing.T, ts int64, kind, metric string, user int, region, net, target string, seq uint64, value float64, raw []byte) {
		var tab internTable
		decodeEnvelopeRecord(raw, &tab)
		readRecords(bytes.NewReader(raw), "fuzz", func(Envelope) {}, func(walCtl) {})

		e := Envelope{V: SchemaVersion, TS: ts, Kind: kind, Metric: metric, User: user,
			Region: region, Net: net, Target: target, Seq: seq, Value: value}
		rec, err := appendEnvelopeRecord(nil, e)
		if err != nil {
			if e.Validate() == nil {
				t.Fatalf("valid envelope %+v refused: %v", e, err)
			}
			return
		}
		var got []Envelope
		n, end, torn, err := readRecords(bytes.NewReader(rec), "fuzz", func(e Envelope) { got = append(got, e) },
			func(walCtl) { t.Fatal("an envelope came back as a control record") })
		if err != nil || torn || n != 1 || end != int64(len(rec)) || len(got) != 1 {
			t.Fatalf("record of %+v read back as %d records to %d of %d bytes, torn %v: %v", e, n, end, len(rec), torn, err)
		}
		if g := got[0]; g != e || math.Signbit(g.Value) != math.Signbit(e.Value) {
			t.Fatalf("round trip: %+v came back as %+v", e, g)
		}
	})
}

// mustRecord is e's framed WAL record.
func mustRecord(tb testing.TB, e Envelope) []byte {
	rec, err := appendEnvelopeRecord(nil, e)
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}

// mustJSONL is e's JSONL line, newline included.
func mustJSONL(tb testing.TB, e Envelope) []byte {
	line, err := AppendJSONL(nil, e)
	if err != nil {
		tb.Fatal(err)
	}
	return line
}

// FuzzSnapshotDecode: decodeSnapshot over arbitrary bytes must never panic
// and must either reject the input or return a self-consistent state.
func FuzzSnapshotDecode(f *testing.F) {
	// A real snapshot as the structured seed.
	dir := f.TempDir()
	cfg := Config{Shards: 1, QueueLen: 16, Block: true, WAL: WALConfig{Dir: dir, SyncEvery: 1}}
	ing := NewIngestor(cfg)
	e := ev(time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli(), MetricRTT, "Beijing", "WiFi", 12.5)
	e.Seq = 1
	ing.Offer(e)
	ing.Flush()
	ing.Close()
	valid, err := os.ReadFile(filepath.Join(shardDir(dir, 0), snapshotFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Add(append([]byte{}, snapMagic[:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if st.shards <= 0 || st.windowMs <= 0 {
			t.Fatalf("accepted snapshot with invalid header: %d shards %dms", st.shards, st.windowMs)
		}
		for _, r := range st.rollups {
			// Accepted sketches must be usable, not booby-trapped.
			r.sk.Quantile(0.5)
			if r.sk.Count() < 0 {
				t.Fatalf("window %v: negative count", r.windowKey)
			}
		}
	})
}
