package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgescope/internal/telemetry"
)

// countingAdmin is a spill destination that records the destructive calls
// a recovery makes. Every other NodeAdmin method is the nil embedded
// interface: recovering a spill must need nothing else.
type countingAdmin struct {
	NodeAdmin
	drops, absorbs int
}

func (a *countingAdmin) DropPartition(context.Context, int, int) (int, error) {
	a.drops++
	return 0, nil
}

func (a *countingAdmin) AbsorbPages(_ context.Context, pages []telemetry.SketchPage) (telemetry.AbsorbAck, error) {
	a.absorbs++
	return telemetry.AbsorbAck{Pages: len(pages)}, nil
}

// TestDamagedSpillNeverRestores: a restore point is acted on only when every
// byte of it checks out. A real spill written through writeSpill is damaged
// one bit at a time (header and pages), then truncated at every length;
// each time RecoverSpills must name the file, keep it for a retry, leave
// the destination untouched, and migrations must refuse to start over it.
// A spill this version does not write (an older coordinator's JSON) is a
// named failure too, never skipped.
func TestDamagedSpillNeverRestores(t *testing.T) {
	ctx := context.Background()
	pm := mustMap(t, MapConfig{Partitions: 8, Nodes: []string{"n0", "n1", "n2"}})
	ing := telemetry.NewIngestor(telemetry.Config{Shards: 1, Block: true})
	defer ing.Close()
	e := telemetry.Envelope{V: 1, TS: 1700000000000, Metric: telemetry.MetricRTT, User: 7, Region: "Beijing", Net: "WiFi", Value: 42}
	for i := 0; i < 3; i++ {
		e.Value++
		ing.Offer(e)
	}
	ing.Flush()
	p := e.Key().ShardOf(8)
	own, err := ing.PartitionPages(p, 8)
	if err != nil || len(own) == 0 {
		t.Fatalf("cut %d pages, err %v", len(own), err)
	}

	dst := &countingAdmin{}
	mig := NewMigrator(pm, map[string]NodeAdmin{"n1": dst}, MigratorConfig{SpillDir: t.TempDir()})
	if err := mig.writeSpill(partPlan{p: p, dst: "n1"}, own); err != nil {
		t.Fatal(err)
	}
	path := mig.spillPath(p)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	refused := func(file, what string) {
		t.Helper()
		restored, err := mig.RecoverSpills(ctx)
		if err == nil || !strings.Contains(err.Error(), filepath.Base(file)) {
			t.Fatalf("%s: RecoverSpills = %v, %v; want an error naming %s", what, restored, err, filepath.Base(file))
		}
		if len(restored) != 0 || dst.drops != 0 || dst.absorbs != 0 {
			t.Fatalf("%s: restored %v with %d drops, %d absorbs at the destination", what, restored, dst.drops, dst.absorbs)
		}
		if _, err := os.Stat(file); err != nil {
			t.Fatalf("%s: spill not kept for a retry: %v", what, err)
		}
		if _, err := mig.Drain(ctx, "n2"); err == nil || !strings.Contains(err.Error(), "spill") {
			t.Fatalf("%s: migration over an unrecovered spill must refuse, got %v", what, err)
		}
	}
	damaged := func(data []byte, what string) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		refused(path, what)
	}

	data := append([]byte(nil), good...)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			data[i] ^= 1 << bit
			damaged(data, fmt.Sprintf("flip of byte %d bit %d", i, bit))
			data[i] ^= 1 << bit
		}
	}
	for n := 0; n < len(good); n++ {
		damaged(good[:n], fmt.Sprintf("truncation to %d bytes", n))
	}

	// An older coordinator's spill: the rebuild it guarded never finished
	// either, and a cluster upgrades together.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(filepath.Dir(path), "spill-p3.json")
	if err := os.WriteFile(legacy, []byte(`{"epoch":2,"partition":3,"of":8,"dst":"n1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	refused(legacy, "legacy JSON spill")
	if err := os.Remove(legacy); err != nil {
		t.Fatal(err)
	}

	// The undamaged bytes restore: one drop, one absorb, spill cleared.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	restored, err := mig.RecoverSpills(ctx)
	if err != nil || len(restored) != 1 || restored[0] != p {
		t.Fatalf("intact spill: restored %v, err %v", restored, err)
	}
	if dst.drops != 1 || dst.absorbs != 1 {
		t.Fatalf("intact spill: %d drops, %d absorbs, want 1 and 1", dst.drops, dst.absorbs)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("spill survived its recovery: %v", err)
	}
}
