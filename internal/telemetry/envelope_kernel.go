package telemetry

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf8"
)

// The schema kernels: hand-written JSONL decode and encode for the one shape
// nearly every line has — what AppendJSONL itself writes, give or take key
// order and whitespace. encoding/json remains the definition of the format
// (decodeLineReference, appendJSONLReference): a kernel either produces
// exactly what the reference would, or declines and the reference runs. It
// never guesses, so every accept, reject, value and error text is still
// encoding/json's.

// Envelope's JSON keys as bits of a seen-set; 0 is "not a key the kernel
// knows".
const (
	fieldV = 1 << iota
	fieldTS
	fieldKind
	fieldMetric
	fieldUser
	fieldRegion
	fieldNet
	fieldTarget
	fieldSeq
	fieldValue
)

// fieldOf maps an exact, lower-case key to its bit. encoding/json also
// matches keys case-insensitively and ignores unknown ones; the kernel
// leaves both to it.
func fieldOf(key []byte) uint {
	switch string(key) {
	case "v":
		return fieldV
	case "ts":
		return fieldTS
	case "kind":
		return fieldKind
	case "metric":
		return fieldMetric
	case "user":
		return fieldUser
	case "region":
		return fieldRegion
	case "net":
		return fieldNet
	case "target":
		return fieldTarget
	case "seq":
		return fieldSeq
	case "value":
		return fieldValue
	}
	return 0
}

// decodeKernel parses one flat JSON object holding each known key at most
// once, in any order, with optional JSON whitespace: strings free of escapes
// and control bytes (and valid UTF-8), v/ts/user/seq as plain decimal
// integers in range, value as a JSON number strconv.ParseFloat accepts.
// Anything else — unknown, case-folded or duplicate key, null, escape,
// nested value, fraction or exponent on an integer, out-of-range number,
// trailing bytes, any syntax error — returns ok=false and the envelope is to
// be ignored. Dimension strings go through tab (nil: plain allocation).
func decodeKernel(b []byte, tab *internTable) (e Envelope, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return e, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return e, skipSpace(b, i+1) == len(b)
	}
	var seen uint
	for {
		if i == len(b) || b[i] != '"' {
			return e, false
		}
		i++
		n := bytes.IndexByte(b[i:], '"')
		if n < 0 {
			return e, false
		}
		f := fieldOf(b[i : i+n])
		if f == 0 || seen&f != 0 {
			return e, false
		}
		seen |= f
		i = skipSpace(b, i+n+1)
		if i == len(b) || b[i] != ':' {
			return e, false
		}
		i = skipSpace(b, i+1)

		switch f {
		case fieldV, fieldTS, fieldUser, fieldSeq:
			mag, neg, n := scanInt(b[i:])
			if n == 0 {
				return e, false
			}
			i += n
			if f == fieldSeq {
				if neg {
					return e, false
				}
				e.Seq = mag
				break
			}
			var x int64
			switch {
			case !neg && mag <= math.MaxInt64:
				x = int64(mag)
			case neg && mag <= 1<<63:
				x = int64(-mag) // two's complement: right down to math.MinInt64
			default:
				return e, false
			}
			if f != fieldTS && x != int64(int(x)) {
				return e, false // int is 32 bits here
			}
			switch f {
			case fieldTS:
				e.TS = x
			case fieldV:
				e.V = int(x)
			default:
				e.User = int(x)
			}
		case fieldValue:
			n := scanNumber(b[i:])
			if n == 0 {
				return e, false
			}
			v, err := strconv.ParseFloat(string(b[i:i+n]), 64)
			if err != nil {
				return e, false
			}
			e.Value = v
			i += n
		default:
			if i == len(b) || b[i] != '"' {
				return e, false
			}
			i++
			n := scanString(b[i:])
			if n < 0 {
				return e, false
			}
			s := tab.get(b[i : i+n])
			i += n + 1
			switch f {
			case fieldKind:
				e.Kind = s
			case fieldMetric:
				e.Metric = s
			case fieldRegion:
				e.Region = s
			case fieldNet:
				e.Net = s
			default:
				e.Target = s
			}
		}

		i = skipSpace(b, i)
		if i == len(b) {
			return e, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return e, skipSpace(b, i+1) == len(b)
		default:
			return e, false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// digits returns how many leading bytes of b are ASCII digits.
func digits(b []byte) int {
	n := 0
	for n < len(b) && b[n]-'0' <= 9 {
		n++
	}
	return n
}

// scanInt reads the integer part of a JSON number at the start of b —
// -?(0|[1-9][0-9]*) — and returns its magnitude, sign and length; n == 0
// means there is none or it has more than 19 digits (which uint64 might not
// hold). What follows the digits is the caller's to judge: a '.', 'e' or
// another digit after a leading 0 is not one of the delimiters it accepts.
func scanInt(b []byte) (mag uint64, neg bool, n int) {
	if len(b) > 0 && b[0] == '-' {
		neg = true
		n = 1
	}
	d := digits(b[n:])
	if d == 0 || d > 19 {
		return 0, false, 0
	}
	if b[n] == '0' {
		d = 1
	}
	for _, c := range b[n : n+d] {
		mag = mag*10 + uint64(c-'0')
	}
	return mag, neg, n + d
}

// scanNumber returns the length of the JSON number literal at the start of
// b, 0 if there is none: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func scanNumber(b []byte) int {
	n := 0
	if len(b) > 0 && b[0] == '-' {
		n = 1
	}
	d := digits(b[n:])
	if d == 0 {
		return 0
	}
	if b[n] == '0' {
		d = 1
	}
	n += d
	if n < len(b) && b[n] == '.' {
		d = digits(b[n+1:])
		if d == 0 {
			return 0
		}
		n += 1 + d
	}
	if n < len(b) && (b[n] == 'e' || b[n] == 'E') {
		m := n + 1
		if m < len(b) && (b[m] == '+' || b[m] == '-') {
			m++
		}
		d = digits(b[m:])
		if d == 0 {
			return 0
		}
		n = m + d
	}
	return n
}

// scanString returns the offset of the quote closing the JSON string whose
// body starts at b[0], or -1 when the string is unterminated or holds
// anything encoding/json would rewrite or reject: an escape, a control byte,
// or invalid UTF-8 (which it replaces with U+FFFD).
func scanString(b []byte) int {
	ascii := true
	for i, c := range b {
		switch {
		case c == '"':
			if !ascii && !utf8.Valid(b[:i]) {
				return -1
			}
			return i
		case c == '\\' || c < 0x20:
			return -1
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return -1
}

// internTable shares a read pass's dimension strings: a pass of n events
// names a few dozen distinct kinds, metrics, regions, networks and targets,
// and allocating each of them per event is most of what a cheap decoder
// would still allocate. It is a fixed array (open addressing, a short probe,
// overwrite when the probe is full) and only holds short strings, so a
// hostile body can neither grow it nor park megabytes in it; it lives on the
// pass's stack and dies with it. A nil table allocates every string.
type internTable [internSlots]string

const (
	internSlots  = 256
	internProbes = 4
	internMaxLen = 64
)

func (t *internTable) get(b []byte) string {
	if t == nil || len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	for p := uint32(0); p < internProbes; p++ {
		slot := &t[(h+p)%internSlots]
		if *slot == string(b) {
			return *slot
		}
		if *slot == "" {
			*slot = string(b)
			return *slot
		}
	}
	s := string(b)
	t[h%internSlots] = s
	return s
}

// appendKernel appends exactly the bytes json.Marshal(e) would, plus the
// newline — field order, omitempty on target and seq, encoding/json's float
// form — or declines (dst returned untouched) when a string holds a byte
// json.Marshal would escape or rewrite. e is already validated, so Value is
// finite.
func appendKernel(dst []byte, e Envelope) ([]byte, bool) {
	if !plainJSON(e.Kind) || !plainJSON(e.Metric) || !plainJSON(e.Region) ||
		!plainJSON(e.Net) || !plainJSON(e.Target) {
		return dst, false
	}
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, int64(e.V), 10)
	dst = append(dst, `,"ts":`...)
	dst = strconv.AppendInt(dst, e.TS, 10)
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, e.Kind...)
	dst = append(dst, `","metric":"`...)
	dst = append(dst, e.Metric...)
	dst = append(dst, `","user":`...)
	dst = strconv.AppendInt(dst, int64(e.User), 10)
	dst = append(dst, `,"region":"`...)
	dst = append(dst, e.Region...)
	dst = append(dst, `","net":"`...)
	dst = append(dst, e.Net...)
	dst = append(dst, '"')
	if e.Target != "" {
		dst = append(dst, `,"target":"`...)
		dst = append(dst, e.Target...)
		dst = append(dst, '"')
	}
	if e.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, e.Seq, 10)
	}
	dst = append(dst, `,"value":`...)
	dst = appendJSONFloat(dst, e.Value)
	return append(dst, '}', '\n'), true
}

// plainJSON reports whether json.Marshal writes s between quotes as it is:
// printable ASCII without the bytes it escapes (its HTML-safe set).
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendJSONFloat is encoding/json's float64 encoder: the shortest 'f' form,
// or 'e' below 1e-6 and from 1e21 with a two-digit negative exponent's
// leading zero dropped (e-07 → e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
