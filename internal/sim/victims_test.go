package sim

import (
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/failures"
)

// pickVictims is the blast-radius hot path of the shared arrival
// streams; these tests pin its boundary behavior: node-scoped picks
// cover the first and last node, rack-scoped picks stay in bounds, and
// the trailing partial rack clamps its count to the fleet edge.

func victimProcess(t *testing.T, scope Scope) FailureProcess {
	t.Helper()
	d, err := dist.NewExponential(10)
	if err != nil {
		t.Fatal(err)
	}
	return FailureProcess{Category: failures.CatGPU, Interarrival: d, Repair: d, Scope: scope}
}

// TestPickVictimsNodeScopeBounds checks node-scoped picks are single
// nodes spanning the whole fleet, first and last node included.
func TestPickVictimsNodeScopeBounds(t *testing.T) {
	cfg := Config{Nodes: 7}
	proc := victimProcess(t, ScopeNode)
	rng := rand.New(rand.NewSource(1))
	seen := make(map[int32]bool)
	for i := 0; i < 2000; i++ {
		first, count := pickVictims(&proc, cfg.Nodes, cfg.NodesPerRack, rng)
		if count != 1 {
			t.Fatalf("node scope count %d, want 1", count)
		}
		if first < 0 || first >= int32(cfg.Nodes) {
			t.Fatalf("victim %d outside fleet [0, %d)", first, cfg.Nodes)
		}
		seen[first] = true
	}
	if !seen[0] || !seen[int32(cfg.Nodes-1)] {
		t.Fatalf("2000 draws never hit a fleet boundary node: seen %v", seen)
	}
}

// TestPickVictimsSingleNodeFleet checks the degenerate one-node fleet:
// the only legal pick is node 0.
func TestPickVictimsSingleNodeFleet(t *testing.T) {
	cfg := Config{Nodes: 1, NodesPerRack: 4}
	rng := rand.New(rand.NewSource(2))
	for _, scope := range []Scope{ScopeNode, ScopeRack} {
		proc := victimProcess(t, scope)
		for i := 0; i < 50; i++ {
			first, count := pickVictims(&proc, cfg.Nodes, cfg.NodesPerRack, rng)
			if first != 0 {
				t.Fatalf("scope %d: first %d, want 0", scope, first)
			}
			wantCount := int32(1)
			if count != wantCount {
				t.Fatalf("scope %d: count %d, want %d", scope, count, wantCount)
			}
		}
	}
}

// TestPickVictimsRackClampAtFleetEdge checks the trailing partial rack:
// 10 nodes in racks of 4 leave a last rack of exactly 2 nodes, and its
// count must clamp to the fleet edge, never reaching past it.
func TestPickVictimsRackClampAtFleetEdge(t *testing.T) {
	cfg := Config{Nodes: 10, NodesPerRack: 4}
	proc := victimProcess(t, ScopeRack)
	rng := rand.New(rand.NewSource(3))
	sawPartial := false
	for i := 0; i < 2000; i++ {
		first, count := pickVictims(&proc, cfg.Nodes, cfg.NodesPerRack, rng)
		if first%int32(cfg.NodesPerRack) != 0 {
			t.Fatalf("rack start %d off the rack grid", first)
		}
		if int(first)+int(count) > cfg.Nodes {
			t.Fatalf("rack [%d, %d) reaches past the %d-node fleet", first, first+count, cfg.Nodes)
		}
		switch first {
		case 0, 4:
			if count != 4 {
				t.Fatalf("full rack at %d has count %d, want 4", first, count)
			}
		case 8:
			if count != 2 {
				t.Fatalf("partial rack at 8 has count %d, want 2", count)
			}
			sawPartial = true
		default:
			t.Fatalf("unexpected rack start %d", first)
		}
	}
	if !sawPartial {
		t.Fatal("2000 draws never selected the partial trailing rack")
	}
}

// TestPickVictimsExactRackDivision checks the no-remainder layout: every
// rack is full-width and the last rack ends exactly at the fleet edge.
func TestPickVictimsExactRackDivision(t *testing.T) {
	cfg := Config{Nodes: 12, NodesPerRack: 4}
	proc := victimProcess(t, ScopeRack)
	rng := rand.New(rand.NewSource(4))
	lastRackSeen := false
	for i := 0; i < 1000; i++ {
		first, count := pickVictims(&proc, cfg.Nodes, cfg.NodesPerRack, rng)
		if count != 4 {
			t.Fatalf("rack at %d has count %d, want full 4", first, count)
		}
		if first == 8 {
			lastRackSeen = true
		}
	}
	if !lastRackSeen {
		t.Fatal("1000 draws never selected the last rack")
	}
}

// TestPickVictimsRackWiderThanFleet checks a rack wider than the whole
// fleet collapses to one all-of-fleet rack.
func TestPickVictimsRackWiderThanFleet(t *testing.T) {
	cfg := Config{Nodes: 3, NodesPerRack: 64}
	proc := victimProcess(t, ScopeRack)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		first, count := pickVictims(&proc, cfg.Nodes, cfg.NodesPerRack, rng)
		if first != 0 || count != int32(cfg.Nodes) {
			t.Fatalf("oversized rack pick [%d, %d), want [0, %d)", first, first+count, cfg.Nodes)
		}
	}
}
