package telemetry

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

// dirBytes reads every file under dir, keyed by its path below dir.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBatchedIngestWritesSameBytes: a durable shard fed 500-envelope
// requests through OfferAll — each one a single drained run — writes the
// same WAL segments and checkpoint, and answers the same queries, as one fed
// the same envelopes one Offer at a time. At least one checkpoint falls
// inside a run, so cutting it mid-run is what is compared.
func TestBatchedIngestWritesSameBytes(t *testing.T) {
	events := checkpointStream(21, 4000)
	const request = 500
	feed := func(batched bool) (files map[string][]byte, answers []byte) {
		dir := t.TempDir()
		ing, _, err := Open(Config{Shards: 1, QueueLen: 1024, Block: true,
			WAL: WALConfig{Dir: dir, SyncEvery: 64, SnapshotEvery: 300}})
		if err != nil {
			t.Fatal(err)
		}
		defer ing.Close()
		s := ing.shards[0]
		midRun := false
		if batched {
			for lo := 0; lo < len(events); lo += request {
				// The worker is idle after a Flush, so the request's one
				// enqueue is the whole of its next run.
				offerAllFlush(t, ing, events[lo:min(lo+request, len(events))])
				s.mu.Lock()
				since := s.wal.sinceRecords
				s.mu.Unlock()
				midRun = midRun || (since > 0 && since < request)
			}
			if !midRun {
				t.Fatal("no checkpoint was cut inside a run: the test compares nothing it means to")
			}
		} else {
			for _, e := range events {
				if !ing.Offer(e) {
					t.Fatal("Offer refused a valid envelope")
				}
			}
			ing.Flush()
		}
		if err := ing.SyncWAL(); err != nil {
			t.Fatal(err)
		}
		if st := ing.Stats()[0]; st.SnapshotBytes == 0 {
			t.Fatal("no checkpoint was cut")
		}
		return dirBytes(t, dir), queryFingerprint(t, ing)
	}
	oneFiles, oneAnswers := feed(false)
	batchFiles, batchAnswers := feed(true)
	if len(oneFiles) != len(batchFiles) {
		t.Fatalf("one at a time wrote %d files, batched %d", len(oneFiles), len(batchFiles))
	}
	for name, want := range oneFiles {
		if got, ok := batchFiles[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("%s: batched ingest wrote %d bytes (present %v), one at a time %d, or they differ", name, len(got), ok, len(want))
		}
	}
	if !bytes.Equal(oneAnswers, batchAnswers) {
		t.Fatalf("query answers differ:\n one at a time %s\n batched %s", oneAnswers, batchAnswers)
	}
}

// spread is n valid envelopes over 24 keys, so every shard of a small
// ingestor gets a share.
func spread(n int) []Envelope {
	out := make([]Envelope, n)
	for i := range out {
		out[i] = ev(checkpointBase+int64(i), MetricRTT, "region-"+strconv.Itoa(i%8), "net-"+strconv.Itoa(i%3), float64(1+i%17))
	}
	return out
}

// parkWorkers holds every shard's lock, so a worker that takes a run stops
// before folding it; the returned func releases them, once however often it
// is called, so a test can also defer it ahead of a failure's Close.
func parkWorkers(ing *Ingestor) func() {
	for _, s := range ing.shards {
		s.mu.Lock()
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for _, s := range ing.shards {
				s.mu.Unlock()
			}
		})
	}
}

// TestQueueBoundDropsPerShard: without Block, a shard whose worker is parked
// takes at most a run and a full queue, every other envelope is dropped and
// counted by its own shard, and nothing is lost from the accounting.
func TestQueueBoundDropsPerShard(t *testing.T) {
	const queueLen = 8
	ing := NewIngestor(Config{Shards: 2, QueueLen: queueLen})
	defer ing.Close()
	events := spread(400)
	offeredTo := make([]uint64, len(ing.shards))
	for _, e := range events {
		offeredTo[e.Key().ShardOf(len(ing.shards))]++
	}

	release := parkWorkers(ing)
	defer release()
	accepted := 0
	for lo := 0; lo < len(events); lo += 50 {
		accepted += ing.OfferAll(events[lo : lo+50])
		for i, s := range ing.shards {
			if n := s.q.len(); n > queueLen {
				t.Fatalf("shard %d queues %d envelopes, QueueLen %d", i, n, queueLen)
			}
		}
	}
	release()
	ing.Flush()

	total := 0
	for i, st := range ing.Stats() {
		if st.Accepted+st.Dropped != offeredTo[i] {
			t.Errorf("shard %d: accepted %d + dropped %d, offered %d", i, st.Accepted, st.Dropped, offeredTo[i])
		}
		// A parked worker holds one taken run; its queue holds the rest.
		if st.Accepted < queueLen || st.Accepted > 2*queueLen {
			t.Errorf("shard %d accepted %d with its worker parked: want between %d and %d", i, st.Accepted, queueLen, 2*queueLen)
		}
		if st.Processed != st.Accepted || st.Queued != 0 {
			t.Errorf("shard %d after Flush: %+v", i, st)
		}
		total += int(st.Accepted)
	}
	if total != accepted {
		t.Fatalf("OfferAll reported %d accepted, the shards count %d", accepted, total)
	}
}

// TestQueueBoundBlocks: with Block, a batch larger than the queue waits for
// a parked worker instead of dropping, and all of it is folded.
func TestQueueBoundBlocks(t *testing.T) {
	ing := NewIngestor(Config{Shards: 2, QueueLen: 8, Block: true})
	defer ing.Close()
	events := spread(400)
	release := parkWorkers(ing)
	defer release()
	done := make(chan int)
	go func() { done <- ing.OfferAll(events) }()
	select {
	case n := <-done:
		t.Fatalf("OfferAll of %d envelopes returned %d past two parked workers and 8-envelope queues", len(events), n)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if n := <-done; n != len(events) {
		t.Fatalf("OfferAll accepted %d of %d", n, len(events))
	}
	ing.Flush()
	if st := ing.TotalStats(); st.Dropped != 0 || st.Accepted != uint64(len(events)) || st.Processed != st.Accepted {
		t.Fatalf("blocking ingest: %+v", st)
	}
}

// TestOfferAllSkipsFrozenPartition: a batch spanning a frozen and a live
// partition enqueues exactly the live partition's envelopes, in order, and
// counts the frozen ones nowhere.
func TestOfferAllSkipsFrozenPartition(t *testing.T) {
	const of = 4
	events := spread(240)
	frozen := events[0].Key().ShardOf(of)
	var live []Envelope
	for _, e := range events {
		if e.Key().ShardOf(of) != frozen {
			live = append(live, e)
		}
	}
	if len(live) == 0 || len(live) == len(events) {
		t.Fatalf("%d of %d envelopes live: the batch must span both", len(live), len(events))
	}

	ing := NewIngestor(Config{Shards: 2, Block: true})
	defer ing.Close()
	if err := ing.FreezePartition(frozen, of); err != nil {
		t.Fatal(err)
	}
	if n := ing.OfferAll(events); n != len(live) {
		t.Fatalf("OfferAll accepted %d, want the live partition's %d", n, len(live))
	}
	ing.Flush()
	if st := ing.TotalStats(); st.Accepted != uint64(len(live)) || st.Dropped != 0 {
		t.Fatalf("stats after a frozen-spanning batch: %+v", st)
	}

	want := NewIngestor(Config{Shards: 2, Block: true})
	defer want.Close()
	offerAllFlush(t, want, live)
	if got, exp := queryFingerprint(t, ing), queryFingerprint(t, want); !bytes.Equal(got, exp) {
		t.Fatalf("frozen-spanning batch folded\n%s\nwant the live partition alone\n%s", got, exp)
	}
}

// TestFlushWaitsForParkedRun: Flush is a barrier on the fold, not on the
// queue — with the worker parked on the shard lock holding a taken run, it
// returns only once that run has been folded.
func TestFlushWaitsForParkedRun(t *testing.T) {
	ing := NewIngestor(Config{Shards: 1, QueueLen: 64, Block: true})
	defer ing.Close()
	events := spread(10)
	release := parkWorkers(ing)
	defer release()
	if n := ing.OfferAll(events); n != len(events) {
		t.Fatalf("accepted %d of %d", n, len(events))
	}
	// Wait for the worker to take the run; it then parks on the shard lock.
	for ing.shards[0].q.len() > 0 {
		time.Sleep(time.Millisecond)
	}
	flushed := make(chan struct{})
	go func() {
		ing.Flush()
		close(flushed)
	}()
	select {
	case <-flushed:
		t.Fatal("Flush returned while the taken run was parked unfolded")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	<-flushed
	res, err := ing.Query(QuerySpec{Metric: MetricRTT})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != float64(len(events)) {
		t.Fatalf("after Flush the query counts %v events, want %d", res.Count, len(events))
	}
}

// TestOfferAllocatesNothing: Offer is OfferAll of a one-element batch, and
// neither the batch nor its shard assignment reaches the heap.
func TestOfferAllocatesNothing(t *testing.T) {
	ing := NewIngestor(Config{Shards: 4, QueueLen: 1024, Block: true})
	defer ing.Close()
	events := spread(64)
	offerAllFlush(t, ing, events) // the queues' buffers and every rollup exist
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		ing.Offer(events[i%len(events)])
		i++
	}); n != 0 {
		t.Fatalf("Offer allocates %v times per call", n)
	}
}

// TestConcurrentOfferAll: producers offering batches at once through small
// queues, with a Flush racing them, lose nothing with Block and account for
// every envelope without it.
func TestConcurrentOfferAll(t *testing.T) {
	const producers, requests, size = 4, 40, 37
	for _, block := range []bool{true, false} {
		ing := NewIngestor(Config{Shards: 3, QueueLen: 16, Block: block})
		events := spread(requests * size)
		accepted := make(chan int, producers)
		for p := 0; p < producers; p++ {
			go func() {
				n := 0
				for r := 0; r < requests; r++ {
					n += ing.OfferAll(events[r*size : (r+1)*size])
				}
				accepted <- n
			}()
		}
		go ing.Flush()
		total := 0
		for p := 0; p < producers; p++ {
			total += <-accepted
		}
		ing.Flush()
		st := ing.TotalStats()
		offered := uint64(producers * len(events))
		if st.Accepted != uint64(total) || st.Accepted+st.Dropped != offered || st.Processed != st.Accepted || st.Queued != 0 {
			t.Errorf("block %v: %d accepted by OfferAll, stats %+v, %d offered", block, total, st, offered)
		}
		if block && st.Dropped != 0 {
			t.Errorf("blocking ingest dropped %d", st.Dropped)
		}
		res, err := ing.Query(QuerySpec{Metric: MetricRTT})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != float64(total) {
			t.Errorf("block %v: query counts %v events, %d accepted", block, res.Count, total)
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
