package telemetry

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// WAL records. A segment (wal-<startMs>.rec) is a run of framed records, all
// little-endian:
//
//	record    len u32 | kind u8 | hsum u8 | payload (len bytes) | crc u32
//	envelope  v varint | ts varint | kind str | metric str | user varint
//	          | region str | net str | target str | seq uvarint | value f64
//
// str is a uvarint length and the bytes. hsum is the low byte of the CRC-32
// (IEEE) of the five header bytes before it, so the header is checked on its
// own — every single-bit flip of those six bytes fails it — and a flipped
// length can never pass for a record the end of the file cut short. crc is
// the CRC-32 (IEEE) of header and payload. A recEnvelope payload is the
// layout above, every field AppendJSONL carries; a recControl payload is the
// walCtl JSON (handoff.go).
//
// Reading tells exactly two outcomes apart. A record cut short by the end of
// the file — fewer bytes than a header, or a header that checks and a record
// that runs past the end — is a torn tail: the footprint of a write cut by a
// crash, never acknowledged, trimmed by recovery. Any complete record whose
// header, checksum, kind or payload does not check is corruption, reported
// with its position.

// Record kinds.
const (
	recEnvelope byte = 1
	recControl  byte = 2
)

const (
	recHeaderBytes = 6
	recFrameBytes  = recHeaderBytes + 4 // header and crc trailer
)

// appendRecordHead reserves a record header at the end of dst; closeRecord
// fills it in once the payload follows.
func appendRecordHead(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0)
}

// closeRecord completes the record whose header appendRecordHead put at
// dst[base:], holding everything after it as its payload.
func closeRecord(dst []byte, base int, kind byte) []byte {
	h := dst[base : base+recHeaderBytes]
	binary.LittleEndian.PutUint32(h, uint32(len(dst)-base-recHeaderBytes))
	h[4] = kind
	h[5] = headerSum(h)
	return appendCRC(dst, base)
}

// headerSum is a header's check byte.
func headerSum(h []byte) byte { return byte(crc32.ChecksumIEEE(h[:5])) }

// parseRecordHeader reads a header; ok is false when it does not check.
func parseRecordHeader(h []byte) (payload uint32, kind byte, ok bool) {
	if h[5] != headerSum(h) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint32(h), h[4], true
}

// appendRecord appends a record of kind holding payload.
func appendRecord(dst []byte, kind byte, payload []byte) []byte {
	base := len(dst)
	dst = append(appendRecordHead(dst), payload...)
	return closeRecord(dst, base, kind)
}

// appendEnvelopeRecord appends e's record to dst, allocating nothing once
// dst has room. Like AppendJSONL it refuses an envelope that does not
// validate.
func appendEnvelopeRecord(dst []byte, e Envelope) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return dst, err
	}
	base := len(dst)
	dst = appendRecordHead(dst)
	dst = binary.AppendVarint(dst, int64(e.V))
	dst = binary.AppendVarint(dst, e.TS)
	dst = appendRecordStr(dst, e.Kind)
	dst = appendRecordStr(dst, e.Metric)
	dst = binary.AppendVarint(dst, int64(e.User))
	dst = appendRecordStr(dst, e.Region)
	dst = appendRecordStr(dst, e.Net)
	dst = appendRecordStr(dst, e.Target)
	dst = binary.AppendUvarint(dst, e.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Value))
	return closeRecord(dst, base, recEnvelope), nil
}

func appendRecordStr(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// decodeEnvelopeRecord parses and validates an envelope payload, sharing its
// strings through tab. The payload must be consumed exactly.
func decodeEnvelopeRecord(p []byte, tab *internTable) (Envelope, error) {
	r := recReader{b: p}
	e := Envelope{V: int(r.varint()), TS: r.varint()}
	e.Kind, e.Metric = r.str(tab), r.str(tab)
	e.User = int(r.varint())
	e.Region, e.Net, e.Target = r.str(tab), r.str(tab), r.str(tab)
	e.Seq = r.uvarint()
	e.Value = r.f64()
	if r.bad || len(r.b) != 0 {
		return Envelope{}, fmt.Errorf("%w: malformed envelope record", ErrInvalid)
	}
	return e.validated()
}

// recReader consumes an envelope payload; a read past its end sets bad.
type recReader struct {
	b   []byte
	bad bool
}

func (r *recReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recReader) str(tab *internTable) string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.bad, r.b = true, nil
		return ""
	}
	s := tab.get(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *recReader) f64() float64 {
	if len(r.b) < 8 {
		r.bad, r.b = true, nil
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// readRecords is readWALSegment's pass over a segment's bytes (see there for
// the callbacks and results).
func readRecords(r io.Reader, path string, fn func(Envelope), ctlFn func(walCtl)) (records uint64, validEnd int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, walBufSize)
	var tab internTable
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s record %d (byte offset %d): %s",
			errWALCorrupt, path, records+1, validEnd, fmt.Sprintf(format, args...))
	}
	for {
		h, perr := br.Peek(recHeaderBytes)
		if len(h) < recHeaderBytes {
			if perr != io.EOF {
				return records, validEnd, false, fmt.Errorf("telemetry: wal %s: %w", path, perr)
			}
			return records, validEnd, len(h) > 0, nil
		}
		n, kind, ok := parseRecordHeader(h)
		if !ok {
			return records, validEnd, false, corrupt("header check failed")
		}
		size := recFrameBytes + int64(n)
		var rec []byte
		peeked := size <= int64(br.Size())
		if peeked {
			rec, perr = br.Peek(int(size))
		} else {
			// Larger than the buffer (an absorb record): assembled as its
			// bytes arrive, so a length past the end allocates no more than
			// the file holds.
			rec, perr = io.ReadAll(io.LimitReader(br, size))
		}
		if int64(len(rec)) < size {
			if perr != nil && perr != io.EOF {
				return records, validEnd, false, fmt.Errorf("telemetry: wal %s: %w", path, perr)
			}
			return records, validEnd, true, nil
		}
		body, _, ok := checkCRC(rec)
		if !ok {
			return records, validEnd, false, corrupt("checksum mismatch")
		}
		payload := body[recHeaderBytes:]
		switch kind {
		case recEnvelope:
			e, derr := decodeEnvelopeRecord(payload, &tab)
			if derr != nil {
				return records, validEnd, false, corrupt("%v", derr)
			}
			fn(e)
		case recControl:
			c, derr := decodeCtl(payload)
			if derr != nil {
				return records, validEnd, false, corrupt("%v", derr)
			}
			ctlFn(c)
		default:
			return records, validEnd, false, corrupt("unknown record kind %d", kind)
		}
		if peeked {
			br.Discard(int(size)) // already peeked: cannot fail
		}
		records++
		validEnd += size
	}
}
