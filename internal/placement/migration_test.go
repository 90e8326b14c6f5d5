package placement

import (
	"testing"
	"time"

	"edgescope/internal/timeseries"
	"edgescope/internal/vm"
)

// fixed is a hand-built VM's Source: it replays the samples it holds.
type fixed struct{ s *timeseries.Series }

func (f fixed) Fill(dst *timeseries.Series) {
	copy(dst.Refill(f.s.Start, f.s.Interval, f.s.Len()), f.s.Values)
}

func (f fixed) Interval() time.Duration { return f.s.Interval }

// withUsage builds v with the CPU samples cpu and the bandwidth samples bw.
func withUsage(v vm.VM, cpu, bw *timeseries.Series) *vm.VM {
	return vm.New(v, cpu, fixed{cpu}, bw, fixed{bw})
}

// unbalancedDataset puts three hot VMs on one server and nothing on the
// others.
func unbalancedDataset() *vm.Dataset {
	t0 := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	mk := func(level float64) *timeseries.Series {
		return timeseries.New(t0, 5*time.Minute, []float64{level, level, level})
	}
	d := &vm.Dataset{
		Duration: 15 * time.Minute,
		Sites: []*vm.Site{
			{Name: "a", Province: "Guangdong", Servers: []vm.Server{
				{CPUCores: 64, MemGB: 256}, {CPUCores: 64, MemGB: 256},
			}},
			{Name: "b", Province: "Guangdong", Servers: []vm.Server{
				{CPUCores: 64, MemGB: 256},
			}},
		},
	}
	for i := 0; i < 3; i++ {
		d.VMs = append(d.VMs, withUsage(vm.VM{
			App: 0, Site: 0, Server: 0,
			VCPUs: 16, MemGB: 64, DiskGB: 100,
		}, mk(80), mk(100)))
	}
	// One cold VM on the second server so every server has a utilisation.
	d.VMs = append(d.VMs, withUsage(vm.VM{
		App: 1, Site: 0, Server: 1,
		VCPUs: 4, MemGB: 16, DiskGB: 50,
	}, mk(2), mk(5)))
	return d
}

func TestRebalanceReducesGap(t *testing.T) {
	d := unbalancedDataset()
	res := RebalanceCPU(d, 10, 10)
	if res.Moves == 0 {
		t.Fatal("no migrations planned for a pathological imbalance")
	}
	if res.GapAfter >= res.GapBefore {
		t.Fatalf("gap did not shrink: %.1f → %.1f", res.GapBefore, res.GapAfter)
	}
	// The plan must not mutate the dataset.
	if d.VMs[0].Server != 0 || d.VMs[0].Site != 0 {
		t.Fatal("RebalanceCPU mutated the dataset")
	}
}

func TestRebalanceCostAccounting(t *testing.T) {
	res := RebalanceCPU(unbalancedDataset(), 10, 10)
	// Every move takes one of the hot server's 64 GB VMs.
	if want := 64 * float64(res.Moves); res.MovedGB != want {
		t.Fatalf("MovedGB %.0f for %d moves, want %.0f", res.MovedGB, res.Moves, want)
	}
	// 20 s per move plus transfer time.
	if res.EstSeconds < 20*float64(res.Moves) {
		t.Fatalf("EstSeconds %.0f below per-move overhead", res.EstSeconds)
	}
}

func TestRebalanceRespectsBudget(t *testing.T) {
	res := RebalanceCPU(unbalancedDataset(), 1, 10)
	if res.Moves > 1 {
		t.Fatalf("budget exceeded: %d moves", res.Moves)
	}
}

func TestRebalanceBalancedClusterNoMoves(t *testing.T) {
	d := unbalancedDataset()
	// Make all VMs identical and spread them.
	d.VMs[0].Server = 0
	d.VMs[1].Server = 1
	d.VMs[2].Site, d.VMs[2].Server = 1, 0
	level := func(v *vm.VM, cpu float64) *vm.VM {
		return withUsage(*v, timeseries.New(time.Time{}, 5*time.Minute, []float64{cpu, cpu, cpu}),
			v.BWSeries(new(timeseries.Series)))
	}
	for i, v := range d.VMs[:3] {
		d.VMs[i] = level(v, 40)
	}
	d.VMs[3] = level(d.VMs[3], 38)
	d.VMs[3].VCPUs = 64 // similar absolute load on its server
	res := RebalanceCPU(d, 10, 10)
	if res.GapAfter > res.GapBefore {
		t.Fatal("rebalance made things worse")
	}
}

func TestRebalanceZeroLinkDefaults(t *testing.T) {
	res := RebalanceCPU(unbalancedDataset(), 5, 0)
	if res.EstSeconds <= 0 && res.Moves > 0 {
		t.Fatal("zero link rate should default, not zero out cost")
	}
}
