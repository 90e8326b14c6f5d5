package faultinject

import (
	"reflect"
	"testing"
)

// run pushes n synthetic events through an injector, collecting deliveries.
func run(inj *Injector[int], n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		inj.Offer(i, i%4, func(v int) bool { out = append(out, v); return true })
	}
	inj.Drain(func(v int) bool { out = append(out, v); return true })
	return out
}

func TestInactivePlanIsIdentity(t *testing.T) {
	for _, spec := range []*Spec{nil, {}} {
		inj := New[int](spec, 1)
		got := run(inj, 100)
		if len(got) != 100 {
			t.Fatalf("inactive plan changed delivery count: %d", len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("inactive plan reordered: got[%d] = %d", i, v)
			}
		}
		if len(inj.Trace()) != 0 {
			t.Fatalf("inactive plan produced a trace: %v", inj.Trace())
		}
	}
}

func TestSameSeedSameTrace(t *testing.T) {
	spec := &Spec{Drop: 0.05, Duplicate: 0.05, Reorder: 0.05, ShardStall: 0.01}
	a := New[int](spec, 42)
	b := New[int](spec, 42)
	run(a, 2000)
	run(b, 2000)
	ta, tb := a.Trace(), b.Trace()
	if len(ta) == 0 {
		t.Fatal("plan injected nothing at these rates")
	}
	if !reflect.DeepEqual(ta, tb) {
		t.Fatalf("same seed diverged: %d vs %d entries", len(ta), len(tb))
	}
	c := New[int](spec, 43)
	run(c, 2000)
	if reflect.DeepEqual(ta, c.Trace()) {
		t.Fatal("different seeds produced identical traces")
	}
	// The spec's own Seed pins the trace regardless of the scenario seed.
	pinned := *spec
	pinned.Seed = 42
	d := New[int](&pinned, 99)
	run(d, 2000)
	if !reflect.DeepEqual(ta, d.Trace()) {
		t.Fatal("Spec.Seed did not override the scenario seed")
	}
}

func TestDropLosesEvents(t *testing.T) {
	inj := New[int](&Spec{Drop: 1}, 1)
	if got := run(inj, 50); len(got) != 0 {
		t.Fatalf("drop=1 delivered %d events", len(got))
	}
	if st := inj.Stats(); st.Dropped != 50 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	inj := New[int](&Spec{Duplicate: 1}, 1)
	if got := run(inj, 50); len(got) != 100 {
		t.Fatalf("duplicate=1 delivered %d events, want 100", len(got))
	}
}

func TestReorderHoldsBackAndRedelivers(t *testing.T) {
	inj := New[int](&Spec{Reorder: 0.3, ReorderSpan: 5}, 7)
	got := run(inj, 500)
	if len(got) != 500 {
		t.Fatalf("reorder lost events: %d of 500", len(got))
	}
	seen := make([]bool, 500)
	displaced := 0
	for i, v := range got {
		if seen[v] {
			t.Fatalf("event %d delivered twice", v)
		}
		seen[v] = true
		if i != v {
			displaced++
		}
	}
	if displaced == 0 {
		t.Fatal("reorder=0.3 displaced nothing")
	}
}

func TestShardStallRefusesShard(t *testing.T) {
	inj := New[int](&Spec{ShardStall: 1, StallSpan: 1 << 30}, 1)
	okShard0 := 0
	for i := 0; i < 100; i++ {
		if inj.Offer(i, 0, func(int) bool { return true }) {
			okShard0++
		}
	}
	if okShard0 != 0 {
		t.Fatalf("stalled shard accepted %d offers", okShard0)
	}
	if st := inj.Stats(); st.Stalled != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHeldRedeliveryRefusedCounted: Offer already answered true for a
// held-back event, so a refused redelivery (hard-full queue, shed) is real
// loss — it must surface in Stats.HeldLost, never vanish.
func TestHeldRedeliveryRefusedCounted(t *testing.T) {
	inj := New[int](&Spec{Reorder: 1, ReorderSpan: 2}, 1)
	refuse := func(int) bool { return false }
	for i := 0; i < 10; i++ {
		if !inj.Offer(i, 0, refuse) {
			t.Fatalf("hold-back offer %d not acknowledged", i)
		}
	}
	inj.Drain(refuse)
	st := inj.Stats()
	if st.Reordered != 10 {
		t.Fatalf("stats = %+v, want 10 reordered", st)
	}
	if st.HeldLost != 10 {
		t.Fatalf("HeldLost = %d, want 10 (every redelivery refused)", st.HeldLost)
	}
	// Accepted redeliveries count nothing.
	ok := New[int](&Spec{Reorder: 1, ReorderSpan: 2}, 1)
	if got := run(ok, 10); len(got) != 10 {
		t.Fatalf("lossless redelivery delivered %d of 10", len(got))
	}
	if st := ok.Stats(); st.HeldLost != 0 {
		t.Fatalf("HeldLost = %d on an accepting receiver", st.HeldLost)
	}
}
