package main

import (
	"encoding/json"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The box's speed is not constant. It is a 2-vCPU guest on a shared host:
// beside the steal the guest can see in /proc/stat, the host's other tenants
// slow every instruction by 10–40 % for stretches longer than a run (busy SMT
// siblings, shared caches), invisibly. Identical runs of identical code then
// read 17–25 % apart (quartile distance over ten runs), all three timed
// figures moving together.
//
// speedProbe measures the box's speed from inside while the load runs: a
// fixed piece of ordinary Go server work — decode a small JSON document with
// the standard library and encode it again, probeTrips times — on its own OS
// thread every probePeriod, charged in that thread's CPU time so that waiting
// for a CPU does not count and only the speed of the CPU it got does. It
// calls nothing in this repository, so no change to the system under test
// changes what it costs. Every timed figure is divided by the probe's
// slowdown over the same interval (README.md, "Figures at reference speed").
const (
	probePeriod = 25 * time.Millisecond
	probeTrips  = 20 // about 0.3 ms: a little over 1 % of one CPU

	// probeRefNs is what one probe sample costs on this box when its
	// neighbours are quiet (15 µs a round trip). It only fixes the scale:
	// slowdown 1.0 means "as fast as this box at its best".
	probeRefNs = probeTrips * 15_000
)

// probeDoc looks like what the daemons spend their time on: one event with
// strings, numbers, a list and a nested object.
const probeDoc = `{"ts":1700000000123,"user":"u0421","region":"r17","net":"wifi","metric":"rtt_ms","value":42.125,` +
	`"tags":["a","b","c"],"nested":{"k1":1,"k2":"two","k3":[1,2,3,4]}}`

type speedSample struct {
	at time.Time
	ns float64 // thread CPU time of probeTrips round trips
}

type speedProbe struct {
	mu      sync.Mutex
	samples []speedSample
	stop    chan struct{}
	done    chan struct{}
}

// threadCPU is the calling OS thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeOnce does the fixed work once and returns the thread CPU time it took.
// The caller's goroutine must be locked to its OS thread.
func probeOnce(doc []byte) (time.Duration, error) {
	began := threadCPU()
	for i := 0; i < probeTrips; i++ {
		var v map[string]any
		if err := json.Unmarshal(doc, &v); err != nil {
			return 0, err
		}
		if _, err := json.Marshal(v); err != nil {
			return 0, err
		}
	}
	return threadCPU() - began, nil
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		doc := []byte(probeDoc)
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			d, err := probeOnce(doc)
			if err != nil {
				panic(err) // the document is a constant
			}
			p.mu.Lock()
			p.samples = append(p.samples, speedSample{time.Now(), float64(d)})
			p.mu.Unlock()
		}
	}()
	return p
}

// close stops the probe's thread and waits for it.
func (p *speedProbe) close() {
	close(p.stop)
	<-p.done
}

// slowdown is how much slower than the reference the box ran between from
// and to: the mean probe cost of the samples taken in that interval over
// probeRefNs. NaN when the interval holds no sample.
func (p *speedProbe) slowdown(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slowdownOf(p.samples, from, to)
}

func slowdownOf(samples []speedSample, from, to time.Time) float64 {
	var sum float64
	n := 0
	for _, s := range samples {
		if !s.at.Before(from) && s.at.Before(to) {
			sum += s.ns
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n) / probeRefNs
}

// atRefSpeed turns per-slice figures measured on the box as it was into what
// the reference box would have read: durations (and CPU) shrink by each
// slice's slowdown, rates grow by it.
func atRefSpeed(vals, slow []float64, rate bool) []float64 {
	out := make([]float64, len(vals))
	for k, v := range vals {
		if rate {
			out[k] = v * slow[k]
		} else {
			out[k] = v / slow[k]
		}
	}
	return out
}
