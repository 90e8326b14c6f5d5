package placement

import (
	"errors"
	"math"
	"testing"

	"edgescope/internal/rng"
	"edgescope/internal/vm"
)

func twoSiteState() *ClusterState {
	return NewClusterState([]*vm.Site{
		{Name: "gd-1", Province: "Guangdong", Servers: []vm.Server{
			{CPUCores: 64, MemGB: 256}, {CPUCores: 64, MemGB: 256},
		}},
		{Name: "bj-1", Province: "Beijing", Servers: []vm.Server{
			{CPUCores: 64, MemGB: 256},
		}},
	})
}

func TestFitsRespectsMemoryStrictly(t *testing.T) {
	st := twoSiteState()
	req := Request{VCPUs: 8, MemGB: 256, Count: 1}
	if !st.Fits(0, 0, req) {
		t.Fatal("should fit exactly")
	}
	st.Commit(Assignment{0, 0}, req)
	if st.Fits(0, 0, Request{VCPUs: 1, MemGB: 1}) {
		t.Fatal("memory must not oversubscribe")
	}
}

func TestFitsAllowsCPUOversubscription(t *testing.T) {
	st := twoSiteState()
	req := Request{VCPUs: 64, MemGB: 64, Count: 1}
	st.Commit(Assignment{0, 0}, req)
	// 64 sold of 64 cores; 1.25× oversub admits 16 more.
	if !st.Fits(0, 0, Request{VCPUs: 16, MemGB: 16}) {
		t.Fatal("mild CPU oversubscription should be allowed")
	}
	if st.Fits(0, 0, Request{VCPUs: 17, MemGB: 16}) {
		t.Fatal("oversubscription cap exceeded")
	}
}

func TestProvinceFiltering(t *testing.T) {
	st := twoSiteState()
	r := rng.New(1)
	as, err := NEPDefault{}.Place(r, st, Request{VCPUs: 4, MemGB: 16, Province: "Beijing", Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range as {
		if a.Site != 1 {
			t.Fatalf("placed outside Beijing: %+v", a)
		}
	}
}

func TestNoCapacityError(t *testing.T) {
	st := twoSiteState()
	r := rng.New(2)
	_, err := NEPDefault{}.Place(r, st, Request{VCPUs: 64, MemGB: 256, Province: "Beijing", Count: 3})
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
}

func TestUnknownProvinceFails(t *testing.T) {
	st := twoSiteState()
	_, err := Random{}.Place(rng.New(3), st, Request{VCPUs: 1, MemGB: 1, Province: "Atlantis", Count: 1})
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v", err)
	}
}

func TestNEPDefaultPrefersEmptyServers(t *testing.T) {
	st := twoSiteState()
	r := rng.New(4)
	// Load server (0,0) heavily.
	st.Commit(Assignment{0, 0}, Request{VCPUs: 48, MemGB: 128})
	st.ObserveUsage(0, 0, 60)
	as, err := NEPDefault{}.Place(r, st, Request{VCPUs: 8, MemGB: 32, Province: "Guangdong", Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if as[0].Server != 1 {
		t.Fatalf("NEPDefault picked loaded server %d", as[0].Server)
	}
}

func TestBestFitPacksFullest(t *testing.T) {
	st := twoSiteState()
	r := rng.New(5)
	st.Commit(Assignment{0, 1}, Request{VCPUs: 32, MemGB: 64})
	as, err := BestFit{}.Place(r, st, Request{VCPUs: 8, MemGB: 32, Province: "Guangdong", Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if as[0].Server != 1 {
		t.Fatalf("BestFit picked emptier server %d", as[0].Server)
	}
}

func TestRandomPlacesEverywhere(t *testing.T) {
	st := twoSiteState()
	r := rng.New(7)
	seen := map[int]bool{}
	as, err := Random{}.Place(r, st, Request{VCPUs: 2, MemGB: 4, Count: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range as {
		seen[a.Site] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatal("random placement never used one of the sites")
	}
}

func TestStrategyNames(t *testing.T) {
	for _, s := range []Strategy{NEPDefault{}, BestFit{}, Random{}} {
		if s.Name() == "" {
			t.Fatal("empty strategy name")
		}
	}
}

func TestObserveUsageSmooths(t *testing.T) {
	st := twoSiteState()
	st.ObserveUsage(0, 0, 100)
	first := st.UsageEst[0][0]
	st.ObserveUsage(0, 0, 100)
	if !(first > 0 && st.UsageEst[0][0] > first && st.UsageEst[0][0] < 100) {
		t.Fatalf("smoothing broken: %v → %v", first, st.UsageEst[0][0])
	}
}

// --- scheduler tests ---

func replicas() []Replica {
	// Replica 0 is nearest to the hot user region; others a few ms away,
	// matching §3.1's low inter-site RTTs.
	return []Replica{
		{CapacityRPS: 100, DelayMs: 10},
		{CapacityRPS: 100, DelayMs: 13},
		{CapacityRPS: 100, DelayMs: 14},
		{CapacityRPS: 100, DelayMs: 18},
	}
}

func TestNearestSiteOverloadsHotReplica(t *testing.T) {
	out := SimulateScheduling(rng.New(8), NearestSite{}, replicas(), 5000)
	// The paper's Figure 12b pathology: one VM above the 80% threshold
	// while siblings idle.
	if out.MaxLoad < 0.8 {
		t.Fatalf("nearest-site max load = %.2f, expected overload", out.MaxLoad)
	}
	if !math.IsInf(out.LoadGap, 1) && out.LoadGap < 3 {
		t.Fatalf("nearest-site load gap = %.1f, expected severe imbalance", out.LoadGap)
	}
}

func TestLoadAwareBalances(t *testing.T) {
	near := SimulateScheduling(rng.New(9), NearestSite{}, replicas(), 5000)
	bal := SimulateScheduling(rng.New(9), LoadAware{DelaySlackMs: 6}, replicas(), 5000)
	if bal.MaxLoad >= near.MaxLoad {
		t.Fatalf("load-aware max load %.2f not below nearest-site %.2f", bal.MaxLoad, near.MaxLoad)
	}
	if !math.IsInf(near.LoadGap, 1) && bal.LoadGap >= near.LoadGap {
		t.Fatalf("load-aware gap %.1f not below nearest-site %.1f", bal.LoadGap, near.LoadGap)
	}
	// The price: bounded extra delay, no more than the slack.
	if bal.MeanDelayMs > near.MeanDelayMs+6 {
		t.Fatalf("load-aware delay %.1f exceeded slack over %.1f", bal.MeanDelayMs, near.MeanDelayMs)
	}
	if bal.OverThresholdFrac > near.OverThresholdFrac {
		t.Fatal("load-aware should reduce time above the 80% threshold")
	}
}

func TestLoadAwareZeroSlackDegenerates(t *testing.T) {
	a := SimulateScheduling(rng.New(10), NearestSite{}, replicas(), 2000)
	b := SimulateScheduling(rng.New(10), LoadAware{DelaySlackMs: 0}, replicas(), 2000)
	if math.Abs(a.MeanDelayMs-b.MeanDelayMs) > 1e-9 {
		t.Fatal("zero-slack LoadAware should match NearestSite delays")
	}
}

func TestSchedulerNames(t *testing.T) {
	if (NearestSite{}).Name() == "" || (LoadAware{}).Name() == "" {
		t.Fatal("scheduler names empty")
	}
}
