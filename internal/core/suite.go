// Package core is edgescope's experiment registry: one constructor per
// table and figure of the paper's evaluation, sharing lazily built
// substrates (the crowd campaign, the NEP and cloud workload traces) through
// a Suite. The cmd/ binaries and the repository-level benchmarks are thin
// wrappers over this package.
//
// A Suite is configured entirely by a scenario.Spec: the declarative layer
// decides the user population, access mix, probe schedule, trace horizon
// and per-study sizing, and the Suite turns that data into substrates and
// artifacts.
package core

import (
	"errors"
	"flag"
	"sync"
	"sync/atomic"

	"edgescope/internal/crowd"
	"edgescope/internal/obs"
	"edgescope/internal/rng"
	"edgescope/internal/scenario"
	"edgescope/internal/topology"
	"edgescope/internal/vm"
	"edgescope/internal/workload"
)

// SuiteFromFlags is the one entry point the CLI binaries share: it resolves
// -scenario (a registry name or a path to a JSON spec) through
// scenario.Resolve, applies the shared -seed precedence rule — a seed flag
// the user explicitly set on fs (which must already be parsed) overrides the
// scenario's seed, otherwise the spec rules — and builds the Suite.
func SuiteFromFlags(fs *flag.FlagSet, scenarioArg, seedFlagName string, seedValue uint64) (*Suite, error) {
	spec, err := scenario.Resolve(scenarioArg)
	if err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == seedFlagName {
			spec.Seed = seedValue
		}
	})
	return NewSuiteFromSpec(spec)
}

// Suite shares substrates across experiments. All artifacts produced from
// the same scenario spec (seed included) are byte-identical across runs and
// across parallelism levels: every substrate and artifact derives its
// randomness from an independent named fork of the root seed, never from
// shared stream position.
//
// A Suite is safe for concurrent use: each lazily built substrate is a
// sync.OnceValue, so any number of goroutines may request artifacts while
// the first requester builds, and a builder panic re-raises its descriptive
// error on every access instead of later callers observing a zero value.
// Substrates are immutable once built.
type Suite struct {
	Seed uint64
	// Spec is the validated scenario driving every substrate and sizing.
	// It is a private copy; treat it as immutable.
	Spec *scenario.Spec

	campaign     func() *crowd.Campaign
	latencyStore func() *crowd.ObservationStore
	thrObs       func() []crowd.ThroughputObs
	nepTrace     func() *vm.Dataset
	cloudTrace   func() *vm.Dataset

	// tracer records execution spans (RunArtifacts nodes, crowd chunk
	// fan-outs). nil — the default — records nothing; see SetTracer.
	tracer *obs.Tracer

	// workers is the run's one worker count: RunArtifacts stores the
	// parallelism it was given, and every fan-out inside a node (the crowd
	// campaign's per-user walks, Figure 14's per-VM fits) takes its width
	// from here, so a parallelism-1 run is serial at both levels. Zero — a
	// suite driven without RunArtifacts — means one worker per CPU. The
	// campaign copies it when built, like the tracer. It is scheduling only:
	// no artifact byte depends on it.
	workers atomic.Int32
}

// SetTracer attaches a span tracer to the suite. Call it before the first
// substrate builds: the campaign propagates the tracer to its own chunked
// observation walk when constructed, so a tracer set later sees the
// scheduler's spans but not the already-built substrates' internals. Tracing
// never changes what is computed — artifacts stay byte-identical with and
// without it.
func (s *Suite) SetTracer(t *obs.Tracer) { s.tracer = t }

// NewSuiteFromSpec builds an experiment suite from a declarative scenario.
// The spec is validated and copied, so later caller mutations cannot leak
// into a running suite.
func NewSuiteFromSpec(sp *scenario.Spec) (*Suite, error) {
	if sp == nil {
		return nil, errors.New("core: nil scenario spec")
	}
	cp := sp.Clone()
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	s := &Suite{Seed: cp.Seed, Spec: cp}
	s.campaign = sync.OnceValue(func() *crowd.Campaign {
		c := crowd.NewCampaign(s.root().Fork("campaign"), cp.Crowd)
		c.Tracer = s.tracer
		c.Workers = int(s.workers.Load())
		return c
	})
	s.latencyStore = sync.OnceValue(func() *crowd.ObservationStore {
		return crowd.NewObservationStore(s.Campaign(), s.root().Fork("latency"))
	})
	s.thrObs = sync.OnceValue(func() []crowd.ThroughputObs {
		return s.Campaign().RunThroughput(s.root().Fork("throughput"))
	})
	s.nepTrace = sync.OnceValue(func() *vm.Dataset {
		d, err := workload.GenerateNEP(s.root().Fork("nep-trace"), workload.NEPFromSpec(cp.Workload))
		if err != nil {
			panic("core: NEP trace generation failed: " + err.Error())
		}
		return d
	})
	s.cloudTrace = sync.OnceValue(func() *vm.Dataset {
		d, err := workload.GenerateCloud(s.root().Fork("cloud-trace"), workload.CloudFromSpec(cp.Workload))
		if err != nil {
			panic("core: cloud trace generation failed: " + err.Error())
		}
		return d
	})
	return s, nil
}

// Name returns the scenario name the suite runs.
func (s *Suite) Name() string { return s.Spec.Name }

func (s *Suite) root() *rng.Source { return rng.New(s.Seed) }

// Campaign returns (building on first use) the crowd campaign.
func (s *Suite) Campaign() *crowd.Campaign { return s.campaign() }

// LatencyStore returns (building on first use) the columnar latency
// substrate: one observation walk, columnarised once, consumed by every
// latency-family artifact.
func (s *Suite) LatencyStore() *crowd.ObservationStore { return s.latencyStore() }

// LatencyObs returns the cached latency-campaign observations — the
// array-of-structs view over the columnar substrate, in emission order.
func (s *Suite) LatencyObs() []crowd.Observation { return s.latencyStore().View() }

// ThroughputObs returns the cached throughput-campaign observations.
func (s *Suite) ThroughputObs() []crowd.ThroughputObs { return s.thrObs() }

// NEP returns the edge platform topology of the campaign.
func (s *Suite) NEP() *topology.Platform { return s.Campaign().NEP }

// NEPTrace returns (generating on first use) the edge workload trace.
func (s *Suite) NEPTrace() *vm.Dataset { return s.nepTrace() }

// CloudTrace returns (generating on first use) the Azure-like cloud trace.
func (s *Suite) CloudTrace() *vm.Dataset { return s.cloudTrace() }
