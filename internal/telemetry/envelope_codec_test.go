package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The schema kernels are an optimisation; encoding/json is the definition.
// These tests hold DecodeLine and AppendJSONL to the reference on every
// input they can make up: same verdict, same fields, same error text, same
// bytes.

// checkDecodeMatchesReference fails unless DecodeLine — and the interned
// variant the read passes use, cold and warm — gives exactly the reference's
// answer for line.
func checkDecodeMatchesReference(t testing.TB, line []byte) {
	t.Helper()
	want, werr := decodeLineReference(line)
	var tab internTable
	interned := func(l []byte) (Envelope, error) { return decodeInterned(l, &tab) }
	for i, decode := range []func([]byte) (Envelope, error){DecodeLine, interned, interned} {
		pass := [...]string{"DecodeLine", "interned, cold", "interned, warm"}[i]
		got, gerr := decode(line)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s %q: err %v, reference err %v", pass, line, gerr, werr)
		}
		if gerr != nil && (gerr.Error() != werr.Error() ||
			errors.Is(gerr, ErrVersion) != errors.Is(werr, ErrVersion) ||
			errors.Is(gerr, ErrInvalid) != errors.Is(werr, ErrInvalid)) {
			t.Fatalf("%s %q: err %q, reference err %q", pass, line, gerr, werr)
		}
		if got != want || math.Signbit(got.Value) != math.Signbit(want.Value) {
			t.Fatalf("%s %q:\n got %+v\nwant %+v", pass, line, got, want)
		}
	}
}

// checkEncodeMatchesReference fails unless AppendJSONL(e) is json.Marshal(e)
// plus a newline, appended after whatever dst already held — or, for an
// envelope Validate rejects, the same error and dst untouched.
func checkEncodeMatchesReference(t testing.TB, e Envelope) {
	t.Helper()
	const prefix = "prefix|"
	got, gerr := AppendJSONL([]byte(prefix), e)
	if verr := e.Validate(); verr != nil {
		if gerr == nil || gerr.Error() != verr.Error() || string(got) != prefix {
			t.Fatalf("%+v: invalid envelope gave (%q, %v), want Validate's %v", e, got, gerr, verr)
		}
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatalf("reference cannot encode a valid envelope %+v: %v", e, err)
	}
	if want := prefix + string(b) + "\n"; gerr != nil || string(got) != want {
		t.Fatalf("%+v:\n got %q (err %v)\nwant %q", e, got, gerr, want)
	}
	// What was written reads back through either decoder to the same thing.
	checkDecodeMatchesReference(t, got[len(prefix):len(got)-1])
}

// declineCases name every shape the decode kernel must hand to
// encoding/json, with the reference's verdict beside it: the envelope it
// accepts, or a fragment of the error it rejects with.
var declineCases = []struct {
	name, line string
	want       Envelope // zero when rejected
	errPart    string
}{
	{"unknown key", `{"v":1,"ts":5,"metric":"m","value":2,"extra":true}`,
		Envelope{V: 1, TS: 5, Metric: "m", Value: 2}, ""},
	{"case-folded key", `{"V":1,"TS":5,"Metric":"m","VALUE":2}`,
		Envelope{V: 1, TS: 5, Metric: "m", Value: 2}, ""},
	{"duplicate key, last wins", `{"v":1,"ts":5,"ts":6,"metric":"m","value":2}`,
		Envelope{V: 1, TS: 6, Metric: "m", Value: 2}, ""},
	{"null string", `{"v":1,"ts":5,"metric":"m","region":null,"value":2}`,
		Envelope{V: 1, TS: 5, Metric: "m", Value: 2}, ""},
	{"null number", `{"v":1,"ts":5,"metric":"m","user":null,"value":2}`,
		Envelope{V: 1, TS: 5, Metric: "m", Value: 2}, ""},
	{"escape in value", `{"v":1,"ts":5,"metric":"a\u0062\n","value":2}`,
		Envelope{V: 1, TS: 5, Metric: "ab\n", Value: 2}, ""},
	{"escape in key", `{"v":1,"ts":5,"metri\u0063":"m","value":2}`,
		Envelope{V: 1, TS: 5, Metric: "m", Value: 2}, ""},
	{"invalid UTF-8 becomes U+FFFD", "{\"v\":1,\"ts\":5,\"metric\":\"m\xff\",\"value\":2}",
		Envelope{V: 1, TS: 5, Metric: "m\ufffd", Value: 2}, ""},
	{"control byte in string", "{\"v\":1,\"ts\":5,\"metric\":\"m\x01\",\"value\":2}",
		Envelope{}, "invalid character"},
	{"nested object", `{"v":1,"ts":5,"metric":"m","value":2,"tags":{"a":[1,2]}}`,
		Envelope{V: 1, TS: 5, Metric: "m", Value: 2}, ""},
	{"nested value in a known field", `{"v":1,"ts":5,"metric":["m"],"value":2}`,
		Envelope{}, "cannot unmarshal array"},
	{"fraction on an integer", `{"v":1,"ts":5.0,"metric":"m","value":2}`,
		Envelope{}, "cannot unmarshal number 5.0"},
	{"exponent on an integer", `{"v":1,"ts":5e3,"metric":"m","value":2}`,
		Envelope{}, "cannot unmarshal number 5e3"},
	{"integer past int64", `{"v":1,"ts":9223372036854775808,"metric":"m","value":2}`,
		Envelope{}, "cannot unmarshal number 9223372036854775808"},
	{"negative seq", `{"v":1,"ts":5,"metric":"m","seq":-1,"value":2}`,
		Envelope{}, "cannot unmarshal number -1"},
	{"twenty-digit seq", `{"v":1,"ts":5,"metric":"m","seq":18446744073709551615,"value":2}`,
		Envelope{V: 1, TS: 5, Metric: "m", Seq: math.MaxUint64, Value: 2}, ""},
	{"leading zero", `{"v":01,"ts":5,"metric":"m","value":2}`,
		Envelope{}, "invalid character"},
	{"value out of range", `{"v":1,"ts":5,"metric":"m","value":1e309}`,
		Envelope{}, "cannot unmarshal number 1e309"},
	{"value not a JSON number", `{"v":1,"ts":5,"metric":"m","value":.5}`,
		Envelope{}, "invalid character"},
	{"quoted number", `{"v":"1","ts":5,"metric":"m","value":2}`,
		Envelope{}, "cannot unmarshal string"},
	{"trailing bytes", `{"v":1,"ts":5,"metric":"m","value":2}x`,
		Envelope{}, "invalid character 'x' after top-level value"},
	{"trailing comma", `{"v":1,"ts":5,"metric":"m","value":2,}`,
		Envelope{}, "invalid character"},
	{"truncated", `{"v":1,"ts":5,"metric":"m","value":2`,
		Envelope{}, "unexpected end of JSON input"},
	{"not an object", `[1,2,3]`,
		Envelope{}, "cannot unmarshal array"},
	{"empty", ``,
		Envelope{}, "unexpected end of JSON input"},
}

func TestDecodeKernelDeclinesToReference(t *testing.T) {
	for _, c := range declineCases {
		line := []byte(c.line)
		if _, ok := decodeKernel(line, nil); ok {
			t.Errorf("%s: kernel took %q", c.name, c.line)
		}
		got, err := DecodeLine(line)
		switch {
		case c.errPart == "" && (err != nil || got != c.want):
			t.Errorf("%s: DecodeLine(%q) = %+v, %v; want %+v", c.name, c.line, got, err, c.want)
		case c.errPart != "" && (err == nil || !strings.Contains(err.Error(), c.errPart) || !errors.Is(err, ErrInvalid)):
			t.Errorf("%s: DecodeLine(%q) err = %v; want ErrInvalid with %q", c.name, c.line, err, c.errPart)
		}
		checkDecodeMatchesReference(t, line)
	}
}

// The kernel is only worth having if it takes what producers actually send:
// AppendJSONL's own output, keys in another order, optional whitespace,
// multi-byte UTF-8, every integer extreme. Semantic rejects (version, ts,
// metric) are the kernel's too — Validate runs on what it parsed.
func TestDecodeKernelTakesCanonicalShapes(t *testing.T) {
	for _, line := range []string{
		`{"v":1,"ts":1633046400000,"kind":"ping","metric":"rtt_ms","user":7,"region":"Beijing","net":"WiFi","target":"nearest-edge","value":12.25}`,
		`{"value":-0.0,"metric":"m","ts":5,"v":1}`,
		" {\t\"v\" : 1 ,\r\n\"ts\":5, \"metric\":\"m\", \"value\":1E+2 } \n",
		`{"v":1,"ts":5,"metric":"延迟","region":"北京","net":"é","value":1e-7}`,
		`{"v":-0,"ts":9223372036854775807,"metric":"m","user":-9223372036854775808,"seq":9999999999999999999,"value":0}`,
		`{"v":99,"ts":1,"metric":"m","value":1}`,
		`{"v":1,"ts":-1,"metric":"m","value":1}`,
		`{"v":1,"ts":1,"metric":"","value":1}`,
		`{}`,
	} {
		if _, ok := decodeKernel([]byte(line), nil); !ok {
			t.Errorf("kernel declined %q", line)
		}
		checkDecodeMatchesReference(t, []byte(line))
	}
}

func TestAppendJSONLMatchesMarshal(t *testing.T) {
	base := Envelope{V: 1, TS: 1633046400000, Kind: "ping", Metric: "rtt_ms", User: 7,
		Region: "Beijing", Net: "WiFi", Target: "nearest-edge", Seq: 3, Value: 12.25}
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 12.25, 1e-6, 9.999999e-7, 1e-7, -1e-7,
		1e-10, 1e20, 1e21, -1e21, 1.5e300, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64,
		123456789, 0.1 + 0.2, 1 << 53, math.NaN(), math.Inf(1)} {
		e := base
		e.Value = v
		checkEncodeMatchesReference(t, e)
	}
	// Strings json.Marshal escapes or rewrites take the reference path and
	// still come out as it writes them.
	for _, s := range []string{"", "plain", `q"uote`, `back\slash`, "<tag>", "a&b", "tab\t", "nul\x00",
		"del\x7f", "é", "北京", "bad\xff", "\u2028"} {
		e := base
		e.Region, e.Target = s, s
		checkEncodeMatchesReference(t, e)
		if _, ok := appendKernel(nil, e); ok != (s == "" || s == "plain" || s == "del\x7f") {
			t.Errorf("appendKernel on %q: took it = %v", s, ok)
		}
	}
	for _, e := range []Envelope{
		{V: 1, TS: 1, Metric: "m"},
		{V: 1, TS: math.MaxInt64, Metric: "m", User: math.MinInt64, Seq: math.MaxUint64},
		{V: 2, TS: 1, Metric: "m"}, {V: 1, TS: 0, Metric: "m"}, {V: 1, TS: 1},
	} {
		checkEncodeMatchesReference(t, e)
	}
}

// One seeded differential sweep in tier-1: random envelopes — plain and
// hostile strings, bit-pattern floats, integer extremes — through the
// encoder, and each encoded line, reshaped and then damaged, through the
// decoder.
func TestCodecDifferentialSweep(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	r := rand.New(rand.NewSource(23))
	dims := []string{"", "ping", "rtt_ms", "Beijing", "WiFi", "nearest-edge", "5G", "tput_mbps",
		"北京", `a"b`, "x<y", "tab\t", "bad\xfe", `\`, "é", strings.Repeat("r", 70)}
	ints := []int64{0, 1, -1, 7, 1633046400000, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
	pick := func() string { return dims[r.Intn(len(dims))] }
	integer := func() int64 {
		if r.Intn(4) == 0 {
			return ints[r.Intn(len(ints))]
		}
		return r.Int63n(1 << uint(1+r.Intn(62)))
	}
	for i := 0; i < n; i++ {
		e := Envelope{V: SchemaVersion, TS: 1 + r.Int63n(1<<41), Kind: "ping", Metric: "rtt_ms",
			User: r.Intn(1000), Region: "Beijing", Net: "WiFi", Value: float64(r.Intn(100000)) / 100}
		switch r.Intn(4) {
		case 0: // anything goes
			e = Envelope{V: int(integer()), TS: integer(), Kind: pick(), Metric: pick(), User: int(integer()),
				Region: pick(), Net: pick(), Target: pick(), Seq: uint64(integer()),
				Value: math.Float64frombits(r.Uint64())}
		case 1: // valid, odd values
			e.Target, e.Seq = pick(), uint64(r.Intn(3))
			e.Value = math.Float64frombits(r.Uint64())
			if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
				e.Value = math.Copysign(0, -1)
			}
		case 2: // valid, powers of ten around the format switch
			e.Value = math.Pow(10, float64(r.Intn(60)-30)) * float64(1+r.Intn(9))
		}
		checkEncodeMatchesReference(t, e)
		if e.Validate() != nil || i%4 != 0 {
			continue
		}
		line, err := appendJSONLReference(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		line = reshapeLine(r, line[:len(line)-1])
		checkDecodeMatchesReference(t, line)
		// Damage: overwrite, drop or double a byte somewhere.
		at := r.Intn(len(line))
		switch r.Intn(3) {
		case 0:
			const pool = `{}[]",:\ 0123456789.eE+-tfnul`
			line[at] = pool[r.Intn(len(pool))]
		case 1:
			line = append(line[:at], line[at+1:]...)
		default:
			line = append(line[:at+1], line[at:]...)
		}
		checkDecodeMatchesReference(t, line)
	}
}

// reshapeLine rewrites one compact JSON object line the way another producer
// might: members in a random order, JSON whitespace between tokens. Commas
// and colons inside strings are safe because only reference-encoded lines
// come here and the split is on `,"` — which json.Marshal never leaves
// unescaped inside a string.
func reshapeLine(r *rand.Rand, line []byte) []byte {
	members := bytes.Split(line[1:len(line)-1], []byte(`,"`))
	for i := range members[1:] {
		members[i+1] = append([]byte(`"`), members[i+1]...)
	}
	r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	space := func() string { return []string{"", "", "", " ", "\t", "\r\n", "  "}[r.Intn(7)] }
	var out []byte
	out = append(out, space()...)
	out = append(out, '{')
	for i, m := range members {
		if i > 0 {
			out = append(out, ',')
		}
		key, val, _ := bytes.Cut(m, []byte(`":`))
		out = append(out, space()...)
		out = append(out, key...)
		out = append(out, '"')
		out = append(out, space()...)
		out = append(out, ':')
		out = append(out, space()...)
		out = append(out, val...)
		out = append(out, space()...)
	}
	out = append(out, '}')
	return append(out, space()...)
}

// FuzzEnvelopeCodecMatchesReference: for any bytes DecodeLine is the
// reference — verdict, fields, error text — and for any envelope built from
// fuzzed fields AppendJSONL is json.Marshal plus a newline, byte for byte.
func FuzzEnvelopeCodecMatchesReference(f *testing.F) {
	add := func(line string, e Envelope) {
		f.Add([]byte(line), e.V, e.TS, e.Kind, e.Metric, e.User, e.Region, e.Net, e.Target, e.Seq, math.Float64bits(e.Value))
	}
	full := Envelope{V: 1, TS: 1633046400000, Kind: "ping", Metric: "rtt_ms", User: 7,
		Region: "Beijing", Net: "WiFi", Target: "nearest-edge", Seq: 4, Value: 12.25}
	for _, c := range declineCases {
		add(c.line, full)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 9.999999e-7, 1e-6, 1e21, 1e20, 3, -2.5e-9} {
		e := full
		e.Value = v
		line, _ := AppendJSONL(nil, e)
		add(string(line), e)
	}
	add(` { "value" : 1E+2 , "v":1, "metric":"é", "ts":5 } `, Envelope{V: 1, TS: 5, Metric: `a"b<c`, Region: "北京", Net: "bad\xff"})
	add(`{"v":1,"ts":5,"metric":"m","seq":9999999999999999999,"user":-9223372036854775808,"value":-0}`,
		Envelope{V: 1, TS: math.MaxInt64, Metric: "m", User: math.MinInt64, Seq: math.MaxUint64})
	f.Fuzz(func(t *testing.T, line []byte, v int, ts int64, kind, metric string, user int,
		region, net, target string, seq uint64, valueBits uint64) {
		checkDecodeMatchesReference(t, line)
		checkEncodeMatchesReference(t, Envelope{V: v, TS: ts, Kind: kind, Metric: metric, User: user,
			Region: region, Net: net, Target: target, Seq: seq, Value: math.Float64frombits(valueBits)})
	})
}
