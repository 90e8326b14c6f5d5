package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Decode reads one JSON Spec. Unknown fields are rejected (a typoed field
// in a hand-written scenario should fail loudly, not silently fall back to
// a default), and the decoded spec must validate.
func Decode(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Load reads and validates a JSON scenario file.
func Load(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	sp, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return sp, nil
}

// Encode writes a Spec as indented JSON, the form Load accepts. Specs are
// all finite scalars, so encoding cannot fail for a validated spec.
func Encode(w io.Writer, sp *Spec) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sp); err != nil {
		return fmt.Errorf("scenario: encode: %w", err)
	}
	_, err := w.Write(buf.Bytes())
	return err
}
