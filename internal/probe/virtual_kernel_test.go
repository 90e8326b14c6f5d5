package probe

import (
	"testing"

	"edgescope/internal/netmodel"
	"edgescope/internal/rng"
)

// TestVirtualPingIntoMatchesVirtualPing pins the buffered kernel against its
// scalar predecessor over a (seed, access, class) sweep: identical stats,
// identical RTT values, identical stream position afterwards.
func TestVirtualPingIntoMatchesVirtualPing(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, access := range netmodel.AllAccess() {
			for _, class := range []netmodel.SiteClass{netmodel.EdgeSite, netmodel.CloudSite} {
				p1 := netmodel.BuildPath(rng.New(seed), access, class, 420)
				p2 := netmodel.BuildPath(rng.New(seed), access, class, 420)
				r1, r2 := rng.New(seed*31), rng.New(seed*31)
				var into PingStats
				for rep := 0; rep < 8; rep++ {
					VirtualPingInto(r1, p1, 30, &into)
					want := VirtualPing(r2, p2, 30)
					if len(into.RTTs) != len(want.RTTs) {
						t.Fatalf("seed %d rep %d: %d RTTs, want %d", seed, rep, len(into.RTTs), len(want.RTTs))
					}
					for i := range want.RTTs {
						if into.RTTs[i] != want.RTTs[i] {
							t.Fatalf("seed %d rep %d RTT %d: %v, want %v", seed, rep, i, into.RTTs[i], want.RTTs[i])
						}
					}
				}
				if r1.Uint64() != r2.Uint64() {
					t.Fatalf("seed %d %v/%v: stream position diverged", seed, access, class)
				}
			}
		}
	}
}

// TestVirtualPingIntoExactCapacity pins the preallocation contract: a short
// buffer is replaced by one of exactly count capacity, a sufficient buffer
// is kept.
func TestVirtualPingIntoExactCapacity(t *testing.T) {
	p := netmodel.BuildPath(rng.New(2), netmodel.LTE, netmodel.EdgeSite, 50)
	var st PingStats
	VirtualPingInto(rng.New(3), p, 30, &st)
	if cap(st.RTTs) != 30 {
		t.Fatalf("cap(RTTs) = %d, want exactly 30", cap(st.RTTs))
	}
	prev := &st.RTTs[0]
	VirtualPingInto(rng.New(4), p, 20, &st)
	if cap(st.RTTs) != 30 || &st.RTTs[:1][0] != prev {
		t.Fatal("sufficient buffer was not reused")
	}
}

// TestVirtualPingIntoSteadyStateAllocs pins the kernel at zero allocations
// once the RTT buffer has warmed up.
func TestVirtualPingIntoSteadyStateAllocs(t *testing.T) {
	p := netmodel.BuildPath(rng.New(5), netmodel.WiFi, netmodel.CloudSite, 900)
	r := rng.New(6)
	var st PingStats
	VirtualPingInto(r, p, 30, &st) // warm-up allocates the buffer once
	allocs := testing.AllocsPerRun(100, func() {
		VirtualPingInto(r, p, 30, &st)
	})
	if allocs != 0 {
		t.Fatalf("steady-state VirtualPingInto allocs/op = %v, want 0", allocs)
	}
}
