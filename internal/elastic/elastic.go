// Package elastic models the §5 "decomposing edge services" discussion:
// should an edge app run on reserved IaaS VMs (today's dominant NEP usage)
// or on a serverless/FaaS substrate? Reserved VMs bill a fixed monthly fee
// and suffer overload when demand spikes past capacity; serverless bills
// per invocation and scales elastically, but cold starts — the criticism
// the paper cites — penalise tail latency exactly where edge apps care
// (ultra-low delay). The package quantifies both sides over a diurnal
// request pattern so the crossover is explicit.
package elastic

import (
	"math"
	"time"

	"edgescope/internal/billing"
	"edgescope/internal/mathx"
	"edgescope/internal/stats"
	"edgescope/internal/timeseries"
)

// Workload is a request-rate series (requests per second over time).
type Workload struct {
	RPS *timeseries.Series
}

// Outcome summarises one plan's behaviour over the workload, scaled to a
// 30-day month.
type Outcome struct {
	MonthlyCost   billing.Money
	MeanLatencyMs float64
	P99LatencyMs  float64
	// OverloadFrac is the fraction of time slots where demand exceeded
	// service capacity (requests queue or drop).
	OverloadFrac float64
}

// VMPlan is a fleet of reserved VMs fronted by a load balancer.
type VMPlan struct {
	Replicas    int
	CapacityRPS float64 // per replica
	VCPUs       int
	MemGB       int
	// ExecMs is the service time at low load; latency inflates with
	// utilisation following an M/M/1-style 1/(1-rho) factor, capped.
	ExecMs float64
}

// Evaluate runs the plan against the workload.
func (p VMPlan) Evaluate(w Workload) Outcome {
	cap := float64(p.Replicas) * p.CapacityRPS
	hw := billing.NEPHardware()
	cost := billing.Money(p.Replicas) * hw.MonthlyHardware(p.VCPUs, p.MemGB, 40)

	lats := make([]float64, 0, len(w.RPS.Values))
	overload := 0
	for _, r := range w.RPS.Values {
		rho := r / cap
		if rho >= 1 {
			overload++
			rho = 0.999
		}
		inflate := 1 / (1 - rho)
		if inflate > 20 {
			inflate = 20
		}
		lats = append(lats, p.ExecMs*inflate)
	}
	sum := stats.SummarizeInPlace(lats)
	return Outcome{
		MonthlyCost:   cost,
		MeanLatencyMs: sum.Mean(),
		P99LatencyMs:  sum.Percentile(99),
		OverloadFrac:  float64(overload) / float64(len(w.RPS.Values)),
	}
}

// ServerlessPlan is a FaaS deployment.
type ServerlessPlan struct {
	// PricePerMInvocations is the cost per million invocations.
	PricePerMInvocations billing.Money
	// PricePerGBSecond is the memory-time rate.
	PricePerGBSecond billing.Money
	// MemGB and ExecMs describe one invocation.
	MemGB  float64
	ExecMs float64
	// ColdStartMs is the paper-cited penalty when no warm instance exists.
	ColdStartMs float64
	// KeepAliveSec is how long an idle instance stays warm.
	KeepAliveSec float64
}

// DefaultServerless mirrors typical FaaS pricing converted to RMB, with a
// per-invocation compute footprint equivalent to the VM path (one request
// occupies ~80 ms of a core at 2 GB, matching a 100-RPS 8-vCPU replica).
func DefaultServerless() ServerlessPlan {
	return ServerlessPlan{
		PricePerMInvocations: 1.4,
		PricePerGBSecond:     0.000077,
		MemGB:                2,
		ExecMs:               80,
		ColdStartMs:          900,
		KeepAliveSec:         300,
	}
}

// Evaluate runs the plan against the workload. Cold-start probability per
// slot follows from the arrival rate and keep-alive: an arrival is cold
// when no request landed on its instance within the keep-alive window,
// approximated as exp(-rps × keepalive) for the first instance tier.
func (p ServerlessPlan) Evaluate(w Workload) Outcome {
	secs := w.RPS.Interval.Seconds()
	var inv, gbs float64
	lats := make([]float64, 0, len(w.RPS.Values))
	// The per-slot cold-start probabilities are deterministic, so they
	// batch cleanly: collect the exponents, one ExpBulk over the buffer,
	// then finish the latency expression in place (bit-identical to a
	// per-slot mathx.Exp).
	for _, r := range w.RPS.Values {
		n := r * secs
		inv += n
		gbs += n * p.MemGB * p.ExecMs / 1000
		lats = append(lats, -r*p.KeepAliveSec)
	}
	mathx.ExpBulk(lats, lats)
	for i, pCold := range lats {
		lats[i] = p.ExecMs + pCold*p.ColdStartMs
	}
	// Scale the observed window to a 30-day month.
	window := float64(w.RPS.Len()) * secs
	scale := 30 * 24 * 3600 / window
	cost := (billing.Money(inv/1e6)*p.PricePerMInvocations + billing.Money(gbs)*p.PricePerGBSecond) * billing.Money(scale)

	// P99: the cold-start tail. With per-slot cold probabilities, the p99
	// latency over the window is the 99th percentile of per-request
	// latencies; approximate with the worst slots weighted by rate.
	sum := stats.SummarizeInPlace(lats)
	return Outcome{
		MonthlyCost:   cost,
		MeanLatencyMs: sum.Mean(),
		P99LatencyMs:  sum.Percentile(99),
		OverloadFrac:  0, // FaaS scales out
	}
}

// DiurnalWorkload builds a day-long request pattern at 5-minute slots: mean
// RPS with a peak-to-trough ratio and a peak hour, mirroring the usage
// shapes of §4.2.
func DiurnalWorkload(meanRPS, peakToTrough, peakHour float64) Workload {
	const n = 24 * 12 // 5-minute slots
	vals := make([]float64, n)
	amp := (peakToTrough - 1) / (peakToTrough + 1)
	for i := range vals {
		h := float64(i) / 12
		vals[i] = meanRPS * (1 + amp*math.Cos((h-peakHour)/24*2*math.Pi))
		if vals[i] < 1e-4 {
			vals[i] = 1e-4
		}
	}
	start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	return Workload{RPS: timeseries.New(start, 5*time.Minute, vals)}
}
