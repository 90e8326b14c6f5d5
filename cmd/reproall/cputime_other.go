//go:build !unix

package main

import "time"

// processCPU reports that this platform has no rusage to read.
func processCPU() (time.Duration, bool) { return 0, false }
