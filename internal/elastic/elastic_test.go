package elastic

import (
	"testing"
)

func TestDiurnalWorkloadShape(t *testing.T) {
	w := DiurnalWorkload(100, 4, 21)
	if w.RPS.Len() != 288 {
		t.Fatalf("slots = %d", w.RPS.Len())
	}
	// Peak near 21:00 must exceed trough near 09:00 by roughly the ratio.
	peak := w.RPS.Values[21*12]
	trough := w.RPS.Values[9*12]
	if ratio := peak / trough; ratio < 3 || ratio > 5 {
		t.Fatalf("peak/trough = %.1f, want ~4", ratio)
	}
}

func TestVMPlanOverload(t *testing.T) {
	w := DiurnalWorkload(100, 4, 21)
	under := VMPlan{Replicas: 1, CapacityRPS: 50, VCPUs: 8, MemGB: 32, ExecMs: 25}
	over := VMPlan{Replicas: 4, CapacityRPS: 50, VCPUs: 8, MemGB: 32, ExecMs: 25}
	uo := under.Evaluate(w)
	oo := over.Evaluate(w)
	if uo.OverloadFrac == 0 {
		t.Fatal("underprovisioned fleet should overload at peak")
	}
	if oo.OverloadFrac != 0 {
		t.Fatalf("provisioned fleet overloaded %.2f of the time", oo.OverloadFrac)
	}
	if uo.P99LatencyMs <= oo.P99LatencyMs {
		t.Fatal("overloaded fleet should have worse tail latency")
	}
	// Cost scales with replica count, not demand.
	if oo.MonthlyCost != 4*uo.MonthlyCost {
		t.Fatalf("VM cost should be linear in replicas: %v vs %v", oo.MonthlyCost, uo.MonthlyCost)
	}
}

func TestServerlessColdStartTail(t *testing.T) {
	sl := DefaultServerless()
	// A near-idle app: arrivals usually find no warm instance.
	idle := DiurnalWorkload(0.001, 2, 12)
	busy := DiurnalWorkload(200, 2, 12)
	io := sl.Evaluate(idle)
	bo := sl.Evaluate(busy)
	if io.P99LatencyMs < sl.ColdStartMs/2 {
		t.Fatalf("idle app p99 = %.0f ms, cold starts should dominate", io.P99LatencyMs)
	}
	if bo.P99LatencyMs > sl.ExecMs*2 {
		t.Fatalf("busy app p99 = %.0f ms, instances should stay warm", bo.P99LatencyMs)
	}
}

func TestCostCrossover(t *testing.T) {
	// §5's economics: serverless wins for idle/spiky apps, reserved VMs win
	// for sustained load.
	sl := DefaultServerless()
	vmPlan := VMPlan{Replicas: 2, CapacityRPS: 100, VCPUs: 8, MemGB: 32, ExecMs: 25}

	idle := DiurnalWorkload(0.05, 3, 12)
	if sl.Evaluate(idle).MonthlyCost >= vmPlan.Evaluate(idle).MonthlyCost {
		t.Fatal("serverless should be cheaper for a near-idle app")
	}

	heavy := DiurnalWorkload(150, 2, 12)
	if sl.Evaluate(heavy).MonthlyCost <= vmPlan.Evaluate(heavy).MonthlyCost {
		t.Fatal("reserved VMs should be cheaper under sustained heavy load")
	}
}

func TestServerlessNeverOverloads(t *testing.T) {
	sl := DefaultServerless()
	w := DiurnalWorkload(10000, 10, 21)
	if out := sl.Evaluate(w); out.OverloadFrac != 0 {
		t.Fatal("FaaS scales out; overload should be zero")
	}
}

func TestLatencyInflationCapped(t *testing.T) {
	w := DiurnalWorkload(99.9, 1.0001, 12) // pinned at ~capacity
	p := VMPlan{Replicas: 1, CapacityRPS: 100, VCPUs: 8, MemGB: 32, ExecMs: 25}
	out := p.Evaluate(w)
	if out.P99LatencyMs > 25*25 {
		t.Fatalf("latency inflation uncapped: %.0f ms", out.P99LatencyMs)
	}
}
