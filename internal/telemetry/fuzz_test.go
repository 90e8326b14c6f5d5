package telemetry

import (
	"bytes"
	"testing"
)

// FuzzEnvelopeDecode guards the JSONL decoder against malformed input: no
// panic on any byte sequence, and every accepted envelope must satisfy its
// own validation contract and re-encode/re-decode to itself.
func FuzzEnvelopeDecode(f *testing.F) {
	f.Add([]byte(`{"v":1,"ts":1633046400000,"kind":"ping","metric":"rtt_ms","user":7,"region":"Beijing","net":"WiFi","target":"nearest-edge","value":12.25}`))
	f.Add([]byte(`{"v":1,"ts":1,"metric":"m","value":0}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"v":99,"ts":1,"metric":"m","value":1}`))
	f.Add([]byte(`{"v":1,"ts":-1,"metric":"m","value":1}`))
	f.Add([]byte(`{"v":1,"ts":1,"metric":"","value":1}`))
	f.Add([]byte(`{"v":1,"ts":1,"metric":"m","value":1e309}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("{\"v\":1,\"ts\":1,\"metric\":\"é\",\"value\":1}"))
	for _, c := range declineCases { // what the schema kernel hands to encoding/json
		f.Add([]byte(c.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		e, err := DecodeLine(line)
		if err != nil {
			return
		}
		// Accepted envelopes uphold the validation contract...
		if verr := e.Validate(); verr != nil {
			t.Fatalf("decoded envelope fails Validate: %v (%+v)", verr, e)
		}
		// ...and survive an encode/decode round trip unchanged.
		out, err := AppendJSONL(nil, e)
		if err != nil {
			t.Fatalf("re-encode failed: %v (%+v)", err, e)
		}
		back, err := DecodeLine(bytes.TrimSuffix(out, []byte("\n")))
		if err != nil {
			t.Fatalf("re-decode failed: %v (%s)", err, out)
		}
		if back != e {
			t.Fatalf("round trip changed envelope:\n in: %+v\nout: %+v", e, back)
		}
	})
}
