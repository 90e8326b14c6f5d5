package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"edgescope/internal/scenario"
	"edgescope/internal/stats"
	"edgescope/internal/timeseries"
	"edgescope/internal/vm"
)

// sampleHash folds a series' sample bits into one word, so two fills can be
// compared bit for bit without holding both.
func sampleHash(s *timeseries.Series) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range s.Values {
		h = (h ^ math.Float64bits(x)) * 1099511628211
	}
	return h ^ uint64(s.Len())
}

// TestTraceRecipesReplayBitIdentical: a generated VM keeps its CPU and
// bandwidth usage as recipes, not samples. For every VM of the small
// scenario's two traces and of flash-crowd's, the summaries recomputed from
// the regenerated series equal the ones stored at generation bit for bit —
// so each replay is the draw the generator made — and regenerating in
// reverse order, or from several goroutines at once (run it under -race),
// gives the same samples.
func TestTraceRecipesReplayBitIdentical(t *testing.T) {
	for _, name := range []string{"small", "flash-crowd"} {
		s, err := NewSuiteFromSpec(scenario.MustGet(name))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name+"/NEP", func(t *testing.T) { checkReplay(t, s.NEPTrace()) })
		t.Run(name+"/Cloud", func(t *testing.T) { checkReplay(t, s.CloudTrace()) })
	}
}

// replayHash regenerates VM v's CPU and bandwidth series into cpu and bw
// and hashes both.
func replayHash(v *vm.VM, cpu, bw *timeseries.Series) [2]uint64 {
	return [2]uint64{sampleHash(v.CPUSeries(cpu)), sampleHash(v.BWSeries(bw))}
}

func checkReplay(t *testing.T, d *vm.Dataset) {
	bits := math.Float64bits
	want := make([][2]uint64, len(d.VMs))
	var cpu, bw, weekly timeseries.Series
	for i, v := range d.VMs {
		v.CPUSeries(&cpu)
		mean := stats.Mean(cpu.Values)
		if bits(mean) != bits(v.MeanCPU()) ||
			bits(stats.CVWithMean(cpu.Values, mean)) != bits(v.CPUCV()) ||
			bits(stats.Percentile(cpu.Values, 95)) != bits(v.P95MaxCPU()) {
			t.Fatalf("VM %d: replayed summaries (%v, %v, %v) differ from generated (%v, %v, %v)",
				i, mean, stats.CVWithMean(cpu.Values, mean), stats.Percentile(cpu.Values, 95),
				v.MeanCPU(), v.CPUCV(), v.P95MaxCPU())
		}
		if cpu.Interval != v.CPUInterval() {
			t.Fatalf("VM %d: series interval %v, CPUInterval %v", i, cpu.Interval, v.CPUInterval())
		}
		v.BWSeries(&bw)
		if m := stats.Mean(bw.Values); bits(m) != bits(v.MeanBW()) {
			t.Fatalf("VM %d: replayed bandwidth mean %v, generated %v", i, m, v.MeanBW())
		}
		bw.ResampleInto(&weekly, 7*24*time.Hour, timeseries.AggMean)
		stored := v.WeeklyBW()
		if weekly.Len() != len(stored) {
			t.Fatalf("VM %d: replay has %d weeks, summary %d", i, weekly.Len(), len(stored))
		}
		for w, x := range weekly.Values {
			if bits(x) != bits(stored[w]) {
				t.Fatalf("VM %d week %d: replayed bandwidth mean %v, generated %v", i, w, x, stored[w])
			}
		}
		want[i] = [2]uint64{sampleHash(&cpu), sampleHash(&bw)}
	}
	for i := len(d.VMs) - 1; i >= 0; i-- {
		if h := replayHash(d.VMs[i], &cpu, &bw); h != want[i] {
			t.Fatalf("VM %d: reverse-order replay differs", i)
		}
	}

	const readers = 4
	var wg sync.WaitGroup
	bad := make([]int, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			bad[g] = -1
			var cpu, bw timeseries.Series
			for k := range d.VMs {
				i := (k + g*len(d.VMs)/readers) % len(d.VMs)
				if replayHash(d.VMs[i], &cpu, &bw) != want[i] {
					bad[g] = i
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, i := range bad {
		if i >= 0 {
			t.Fatalf("reader %d: concurrent replay of VM %d differs", g, i)
		}
	}
}
