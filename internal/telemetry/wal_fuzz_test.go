package telemetry

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzWALSegmentReplay: readWALSegment over arbitrary bytes must never
// panic, and its verdict must be consistent — a clean read (no error, no
// torn tail) must re-read identically, and a torn tail must truncate to a
// clean segment with the same records.
func FuzzWALSegmentReplay(f *testing.F) {
	var seed []byte
	e := ev(time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC).UnixMilli(), MetricRTT, "Beijing", "WiFi", 12.5)
	seed, _ = AppendJSONL(nil, e)
	f.Add(seed)                                       // one valid record
	f.Add(append(append([]byte{}, seed...), seed...)) // two records
	f.Add(append(append([]byte{}, seed...), 'x'))     // torn tail
	f.Add(seed[:len(seed)/2])                         // torn only record
	f.Add([]byte("{\"v\":99}\n"))                     // corrupt line
	f.Add([]byte("\n\n\n"))                           // blanks
	f.Add([]byte{})                                   // empty file
	f.Add([]byte{0xff, 0xfe, 0x00, '\n', 'a', 0x01})  // binary garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walPrefix+"0"+walSuffix)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		records, validEnd, torn, err := readWALSegment(osFS{}, path, func(Envelope) {}, func(walCtl) {})
		if err != nil {
			return // corruption detected loudly — acceptable, no panic
		}
		if validEnd < 0 || validEnd > int64(len(data)) {
			t.Fatalf("validEnd %d outside file of %d bytes", validEnd, len(data))
		}
		if torn {
			// Truncating the torn tail must yield a clean segment with the
			// same durable records — the recovery path's exact action.
			if err := os.Truncate(path, validEnd); err != nil {
				t.Fatal(err)
			}
		}
		again, _, torn2, err2 := readWALSegment(osFS{}, path, func(Envelope) {}, func(walCtl) {})
		if err2 != nil || torn2 || again != records {
			t.Fatalf("re-read after handling diverged: records %d->%d torn=%v err=%v",
				records, again, torn2, err2)
		}
	})
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
