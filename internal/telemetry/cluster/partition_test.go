package cluster

import (
	"reflect"
	"testing"

	"edgescope/internal/telemetry"
)

func mustMap(t *testing.T, cfg MapConfig) *PartitionMap {
	t.Helper()
	m, err := NewMap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMapValidation(t *testing.T) {
	bad := []MapConfig{
		{},                          // no nodes
		{Nodes: []string{"a", ""}},  // empty id
		{Nodes: []string{"a", "a"}}, // duplicate id
		{Nodes: []string{"a", "b"}, ReplicationFactor: 2}, // replication was removed
	}
	for i, cfg := range bad {
		if _, err := NewMap(cfg); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
	}
	m := mustMap(t, MapConfig{Nodes: []string{"a", "b"}})
	if got := m.Partitions(); got != DefaultPartitions {
		t.Fatalf("default partitions = %d", got)
	}
	if got := m.Current().ReplicationFactor; got != 1 {
		t.Fatalf("replication factor = %d", got)
	}
	if _, err := NewMap(MapConfig{Nodes: []string{"a", "b"}, ReplicationFactor: 1}); err != nil {
		t.Fatalf("explicit factor 1 refused: %v", err)
	}
}

// TestPartitionOfMatchesShardHash: the key→partition map is the pipeline's
// stable FNV-1a shard hash — the property that lets every router, node and
// replay agree with no coordination.
func TestPartitionOfMatchesShardHash(t *testing.T) {
	m := mustMap(t, MapConfig{Partitions: 8, Nodes: []string{"a", "b", "c"}})
	keys := []telemetry.Key{
		{Metric: "rtt_ms", Region: "Beijing", Net: "WiFi"},
		{Metric: "rtt_ms", Region: "Shanghai", Net: "5G"},
		{Metric: "hop_count", Region: "Beijing", Net: "WiFi"},
	}
	for _, k := range keys {
		if got, want := m.PartitionOf(k), k.ShardOf(8); got != want {
			t.Fatalf("PartitionOf(%v) = %d, ShardOf = %d", k, got, want)
		}
	}
}

// TestPlacementCoversEveryPartition: owner sets partition the whole space
// disjointly.
func TestPlacementCoversEveryPartition(t *testing.T) {
	nodes := []string{"n0", "n1", "n2"}
	m := mustMap(t, MapConfig{Partitions: 16, Nodes: nodes})
	seen := map[int]string{}
	for _, n := range nodes {
		for _, p := range m.OwnedBy(n) {
			if prev, dup := seen[p]; dup {
				t.Fatalf("partition %d owned by %s and %s", p, prev, n)
			}
			seen[p] = n
			if m.Owner(p) != n {
				t.Fatalf("Owner(%d) = %s, OwnedBy says %s", p, m.Owner(p), n)
			}
		}
	}
	if len(seen) != 16 {
		t.Fatalf("owners cover %d of 16 partitions", len(seen))
	}
	if m.OwnedBy("stranger") != nil {
		t.Fatal("unknown node assigned partitions")
	}
}

func TestNodeInfoDescribesPlacement(t *testing.T) {
	m := mustMap(t, MapConfig{Partitions: 6, Nodes: []string{"a", "b", "c"}})
	info := m.NodeInfo("b")
	if info.Role != "node" || info.ID != "b" {
		t.Fatalf("info = %+v", info)
	}
	if !reflect.DeepEqual(info.Partitions, m.OwnedBy("b")) {
		t.Fatalf("Partitions = %v, OwnedBy = %v", info.Partitions, m.OwnedBy("b"))
	}
}
