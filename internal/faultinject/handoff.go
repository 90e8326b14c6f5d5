package faultinject

import (
	"fmt"
)

// Handoff-phase fault kinds, as recorded in the trace.
const (
	KindHandoffKill         = "handoff_kill_gaining"
	KindHandoffPartition    = "handoff_partition_source"
	KindHandoffCrashRecover = "handoff_crash_recover"
	KindHandoffRecover      = "handoff_recover"
)

// defaultHandoffSpan is the outage length, in coordinator steps, when a
// handoff fault rate is set but HandoffSpan is zero.
const defaultHandoffSpan = 4

// HandoffStats counts injected handoff-phase faults.
type HandoffStats struct {
	Steps         uint64 `json:"steps"`
	Kills         uint64 `json:"kills"`
	Partitions    uint64 `json:"partitions"`
	CrashRecovers uint64 `json:"crash_recovers"`
	// Blocked counts steps refused because a participant was inside an
	// outage window — the failures the migrator's retry/rollback machinery
	// must absorb.
	Blocked uint64 `json:"blocked"`
}

// HandoffHooks connect the injector to the cluster under test. All hooks
// run synchronously inside Step, on the coordinator's goroutine.
type HandoffHooks struct {
	// Kill hard-kills the gaining node (telemetry.Ingestor.Crash): memory
	// and unsynced WAL bytes are gone.
	Kill func(node string)
	// Recover brings a killed node back via WAL recovery, once its outage
	// span has elapsed.
	Recover func(node string)
	// CrashRecover crashes the gaining node and reopens it immediately —
	// one step's failure, with whatever the crash left durable still there
	// for the retry to rebuild over.
	CrashRecover func(node string)
}

// HandoffInjector applies a fault plan's handoff-phase faults to a
// rebalance. It plugs into cluster.MigratorConfig.Hook: every coordinator
// step passes through Step, which either lets it proceed (nil) or fails it
// with an error — exactly what a transport failure at that point would do,
// so the migrator's bounded retries and whole-migration rollback are
// exercised by the real code path.
//
// Fault targeting follows the step's role: kill-gaining and crash-recover
// draw at destination rebuild steps, partition-source draws at source
// flush/fetch steps. Spans are counted in steps, the draw order per step
// is fixed (kill, crash-recover, partition) with zero-rate kinds skipped,
// and one seed pins the whole trace — the same determinism contract as the
// event- and node-level injectors.
//
// Step must be called from a single goroutine (the migrator's); accessors
// may be called from others. RecoverAll, Blocked and Trace come from the
// shared plan.
type HandoffInjector struct {
	plan
	hooks HandoffHooks
	stats HandoffStats // guarded by plan.mu
}

// NewHandoff builds a handoff-phase injector for a fault plan.
// scenarioSeed seeds the draw stream when the plan does not pin its own
// Seed; the stream forks under "faultinject-handoff", independent of the
// event- and node-level forks. A plan with no handoff rates injects
// nothing and draws nothing.
func NewHandoff(spec *Spec, scenarioSeed uint64, hooks HandoffHooks) *HandoffInjector {
	inj := &HandoffInjector{hooks: hooks}
	inj.init(spec, scenarioSeed, handoffActive(spec), "faultinject-handoff")
	inj.reviveKind, inj.revive = KindHandoffKill, hooks.Recover
	inj.revivedKind = KindHandoffRecover
	orDefault(&inj.spec.HandoffSpan, defaultHandoffSpan)
	return inj
}

// Step passes one coordinator step through the fault plan. A nil return
// lets the step proceed; an error fails it the way a transport failure
// would. Phase names follow cluster.HandoffStep.
func (inj *HandoffInjector) Step(phase string, partition int, source, dest string) error {
	idx := inj.tick()
	inj.count(&inj.stats.Steps)
	if inj.src == nil {
		return nil
	}

	// A participant inside an outage window fails the step before any new
	// draw — the coordinator keeps meeting the same dead node until the
	// span elapses, like a real outage.
	for _, n := range []string{source, dest} {
		if n == "" {
			continue
		}
		if o, down := inj.outageAt(n, idx); down {
			inj.count(&inj.stats.Blocked)
			return fmt.Errorf("faultinject: %s unreachable (%s until step %d)", n, o.kind, o.until)
		}
	}

	spec := &inj.spec
	rebuildStep := dest != "" && phase == "rebuild"
	sourceStep := source != "" && (phase == "flush" || phase == "fetch")
	switch {
	case rebuildStep && inj.draw(spec.HandoffKillGaining):
		inj.strike(idx, KindHandoffKill, spec.HandoffSpan, dest, &inj.stats.Kills)
		if inj.hooks.Kill != nil {
			inj.hooks.Kill(dest)
		}
		return fmt.Errorf("faultinject: gaining node %s killed mid-transfer (partition %d)", dest, partition)
	case rebuildStep && inj.draw(spec.HandoffCrashRecover):
		inj.record(TraceEntry{Event: idx, Kind: KindHandoffCrashRecover, Node: dest}, &inj.stats.CrashRecovers)
		if inj.hooks.CrashRecover != nil {
			inj.hooks.CrashRecover(dest)
		}
		return fmt.Errorf("faultinject: gaining node %s crashed and recovered (partition %d)", dest, partition)
	case sourceStep && inj.draw(spec.HandoffPartitionSource):
		inj.strike(idx, KindHandoffPartition, spec.HandoffSpan, source, &inj.stats.Partitions)
		return fmt.Errorf("faultinject: losing owner %s partitioned from coordinator (partition %d)", source, partition)
	}
	return nil
}

// Stats returns a copy of the handoff-fault counters.
func (inj *HandoffInjector) Stats() HandoffStats {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.stats
}
