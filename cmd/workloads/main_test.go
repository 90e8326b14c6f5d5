package main

import (
	"bytes"
	"errors"
	"testing"

	"edgescope/internal/rng"
	"edgescope/internal/workload"
)

// failAfter accepts n writes, then fails every later one.
type failAfter struct{ n int }

var errClosed = errors.New("write on closed pipe")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n == 0 {
		return 0, errClosed
	}
	f.n--
	return len(p), nil
}

// TestRenderLoadedPropagatesWriteErrors: a failed write of either block must
// surface (main exits 1 on it) instead of a truncated report exiting 0.
func TestRenderLoadedPropagatesWriteErrors(t *testing.T) {
	d, err := workload.GenerateNEP(rng.New(1), workload.Options{Apps: 4, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := renderLoaded(&full, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(full.Bytes(), []byte("VM sizing")) || !bytes.Contains(full.Bytes(), []byte("CPU utilisation")) {
		t.Fatalf("report misses a block:\n%s", full.String())
	}
	for n := 0; n < 2; n++ { // fail the table, then the figure
		if err := renderLoaded(&failAfter{n: n}, d); !errors.Is(err, errClosed) {
			t.Fatalf("write %d failed but renderLoaded returned %v", n, err)
		}
	}
}
