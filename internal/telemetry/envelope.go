// Package telemetry is edgescope's streaming measurement pipeline: a
// versioned JSONL event schema (Envelope), a sharded single-writer ingest
// stage with bounded queues and explicit drop accounting (Ingestor),
// time-windowed quantile-sketch rollups per (metric, region, network), and
// a query layer that answers percentile/CDF/count questions over arbitrary
// window ranges by merging sketches. cmd/telemetryd serves it over HTTP;
// Replay streams the paper's deterministic crowd campaign through the full
// pipeline so the streaming answers can be cross-checked against the batch
// stats.Summary within the sketch's documented error bound.
//
// The batch reproduction (internal/core) computes each figure from a full
// in-memory observation set; this package is the serving-system counterpart:
// events arrive one at a time, memory per (dimension, window) stays bounded
// at O(sketch compression), and queries are answered live while ingestion
// continues.
package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// SchemaVersion is the current Envelope schema version. Decoders accept
// exactly this version: an unknown version is a hard error rather than a
// silent misread, which is what lets the schema evolve under old data files.
const SchemaVersion = 1

// Envelope is one telemetry event: a single metric observation tagged with
// the dimensions the rollup layer aggregates by. The wire format is JSONL —
// one compact JSON object per line — matching the monitor→JSONL→analysis
// pipelines of real measurement platforms.
type Envelope struct {
	V      int    `json:"v"`                // schema version (SchemaVersion)
	TS     int64  `json:"ts"`               // event time, Unix milliseconds
	Kind   string `json:"kind"`             // probe kind: "ping", "iperf", ...
	Metric string `json:"metric"`           // metric id: "rtt_ms", "tput_mbps", ...
	User   int    `json:"user"`             // originating user id
	Region string `json:"region"`           // site/metro dimension
	Net    string `json:"net"`              // access-network dimension
	Target string `json:"target,omitempty"` // probe target class (informational)

	// Seq is an optional per-source sequence number for idempotent ingest:
	// a retrying client numbers the envelopes it sends (scoped per source
	// user and rollup key, starting at 1), and the ingest shard folds each
	// (key, user, seq) at most once, so retries and network duplicates
	// cannot double-count. 0 means unsequenced — no dedup.
	Seq uint64 `json:"seq,omitempty"`

	Value float64 `json:"value"` // the observation
}

// Key returns the envelope's rollup dimensions.
func (e Envelope) Key() Key {
	return Key{Metric: e.Metric, Region: e.Region, Net: e.Net}
}

// Decode errors. ErrVersion and ErrInvalid wrap the specific cause;
// errors.Is works against both.
var (
	ErrVersion = errors.New("telemetry: unsupported envelope version")
	ErrInvalid = errors.New("telemetry: invalid envelope")
)

// Validate checks the semantic invariants the ingest layer relies on:
// supported version, a metric name, a positive timestamp and a finite value.
func (e Envelope) Validate() error {
	if e.V != SchemaVersion {
		return fmt.Errorf("%w: v=%d", ErrVersion, e.V)
	}
	if e.Metric == "" {
		return fmt.Errorf("%w: empty metric", ErrInvalid)
	}
	if e.TS <= 0 {
		return fmt.Errorf("%w: non-positive ts %d", ErrInvalid, e.TS)
	}
	if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
		return fmt.Errorf("%w: non-finite value", ErrInvalid)
	}
	return nil
}

// DecodeLine parses and validates one JSONL line. Unknown JSON fields are
// ignored (forward compatibility within a schema version); structural and
// semantic errors wrap ErrInvalid or ErrVersion. The schema kernel takes the
// canonical shape, and whatever it declines — a case-folded or escaped line,
// an extra field, every malformed one — goes to the reference, which defines
// the answer.
func DecodeLine(line []byte) (Envelope, error) {
	e, ok := decodeKernel(line, nil)
	if !ok {
		return decodeLineReference(line)
	}
	return e.validated()
}

// decodeInterned is DecodeLine for a read pass, whose dimension strings the
// kernel shares through tab. A line the kernel declines is DecodeLine's —
// one more cheap refusal there, then encoding/json — so a pass and a single
// line cannot come to differ.
func decodeInterned(line []byte, tab *internTable) (Envelope, error) {
	e, ok := decodeKernel(line, tab)
	if !ok {
		return DecodeLine(line)
	}
	return e.validated()
}

func (e Envelope) validated() (Envelope, error) {
	if err := e.Validate(); err != nil {
		return Envelope{}, err
	}
	return e, nil
}

// decodeLineReference is the decoder's definition: encoding/json, then
// Validate.
func decodeLineReference(line []byte) (Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(line, &e); err != nil {
		return Envelope{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return e.validated()
}

// AppendJSONL appends the envelope's JSONL encoding (one line, trailing
// newline) to dst and returns the extended slice. Encoding a validated
// envelope never fails; the error covers programmatic misuse (non-finite
// values would otherwise serialise as invalid JSON).
func AppendJSONL(dst []byte, e Envelope) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return dst, err
	}
	if out, ok := appendKernel(dst, e); ok {
		return out, nil
	}
	return appendJSONLReference(dst, e)
}

// appendJSONLReference is the encoder's definition — json.Marshal plus a
// newline — and the path of any string json.Marshal would escape.
func appendJSONLReference(dst []byte, e Envelope) ([]byte, error) {
	b, err := json.Marshal(e)
	if err != nil {
		return dst, fmt.Errorf("telemetry: encode: %w", err)
	}
	dst = append(dst, b...)
	return append(dst, '\n'), nil
}

// DecodeStats summarises one JSONL read pass.
type DecodeStats struct {
	Decoded   int // valid envelopes yielded
	Malformed int // lines rejected (bad JSON, bad version, bad fields, oversize)
}

// scanBufSize is the line buffer of a read pass; scanBufPool recycles the
// readers that hold one across passes. Unpooled it is one 64 KiB allocation
// per /ingest request — nine tenths of what a cluster node allocates under
// ingest load.
const scanBufSize = 64 * 1024

var scanBufPool = sync.Pool{New: func() any {
	return bufio.NewReaderSize(nil, scanBufSize)
}}

// maxLineBytes caps an /ingest line, newline included. A longer one is
// skipped, not buffered.
const maxLineBytes = 1024 * 1024

// errLineTooLong is lineReader's verdict on a line over its cap.
var errLineTooLong = errors.New("telemetry: line too long")

// lineReader yields newline-delimited records from br without allocating
// per line: a line that fits br's buffer is a slice of it, and only a longer
// one is assembled in spill.
type lineReader struct {
	br    *bufio.Reader
	spill []byte // reused across the pass's long lines
}

// next returns the next line with its newline, valid until the following
// call. A final line without one comes back with io.EOF (as does the empty
// end of input). A line longer than maxLineBytes is consumed through its
// newline and reported as errLineTooLong, once, holding no more than
// maxLineBytes of it; any other error is the underlying reader's.
func (lr *lineReader) next() ([]byte, error) {
	line, err := lr.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	lr.spill = append(lr.spill[:0], line...)
	tooLong := false
	for err == bufio.ErrBufferFull {
		line, err = lr.br.ReadSlice('\n')
		if tooLong = tooLong || len(lr.spill)+len(line) > maxLineBytes; !tooLong {
			lr.spill = append(lr.spill, line...)
		}
	}
	if !tooLong {
		return lr.spill, err
	}
	if err != nil && err != io.EOF {
		return nil, err
	}
	return nil, errLineTooLong // an EOF comes back on the next call
}

// ReadJSONL streams JSONL from r, calling fn for every valid envelope.
// Malformed lines are counted, not fatal — one corrupt line must not take
// down an ingest batch — and that includes a line over 1 MiB, which is
// skipped to its newline in bounded memory and counted once. Only an I/O
// error ends the pass. Blank lines are skipped.
func ReadJSONL(r io.Reader, fn func(Envelope)) (DecodeStats, error) {
	var st DecodeStats
	br := scanBufPool.Get().(*bufio.Reader)
	br.Reset(r)
	defer func() {
		br.Reset(nil) // the pool must not keep the request body alive
		scanBufPool.Put(br)
	}()
	lr := lineReader{br: br}
	var tab internTable
	for {
		line, err := lr.next()
		if err == errLineTooLong {
			st.Malformed++
			continue
		}
		// Whatever precedes EOF or an I/O error is still a line.
		line = bytes.TrimSuffix(line, []byte("\n"))
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) > 0 {
			if e, derr := decodeInterned(line, &tab); derr != nil {
				st.Malformed++
			} else {
				st.Decoded++
				fn(e)
			}
		}
		if err == io.EOF {
			return st, nil
		}
		if err != nil {
			return st, err
		}
	}
}
