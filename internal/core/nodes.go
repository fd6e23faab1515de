package core

import (
	"sort"

	"repro/internal/failures"
	"repro/internal/index"
)

// NodeCountBin is one bar of Figure 4: how many nodes accumulated exactly
// Failures failures, as a share of all affected nodes.
type NodeCountBin struct {
	Failures int
	Nodes    int
	Percent  float64
}

// NodeFailureCounts computes the failures-per-node distribution over the
// nodes that appear in the log (RQ2, Figure 4), sorted by failure count.
func NodeFailureCounts(ix *index.View) ([]NodeCountBin, error) {
	perNode := ix.NodeCounts()
	if len(perNode) == 0 {
		return nil, ErrEmptyLog
	}
	byCount := make(map[int]int)
	for _, c := range perNode {
		byCount[c]++
	}
	out := make([]NodeCountBin, 0, len(byCount))
	total := float64(len(perNode))
	for c, nodes := range byCount {
		out = append(out, NodeCountBin{Failures: c, Nodes: nodes, Percent: 100 * float64(nodes) / total})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Failures < out[j].Failures })
	return out, nil
}

// PercentWithExactly returns the share of affected nodes with exactly k
// failures.
func PercentWithExactly(bins []NodeCountBin, k int) float64 {
	for _, b := range bins {
		if b.Failures == k {
			return b.Percent
		}
	}
	return 0
}

// PercentWithAtLeast returns the share of affected nodes with k or more
// failures.
func PercentWithAtLeast(bins []NodeCountBin, k int) float64 {
	var p float64
	for _, b := range bins {
		if b.Failures >= k {
			p += b.Percent
		}
	}
	return p
}

// MultiNodeSplit counts hardware and software failures that occurred on
// nodes with more than one failure — the paper reports 352 hardware and 1
// software failure on Tsubame-2's multi-failure nodes versus 104 and 95 on
// Tsubame-3's.
type MultiNodeSplit struct {
	Hardware int
	Software int
}

// MultiFailureNodeSplit computes the hardware/software split of failures
// on multi-failure nodes (RQ2).
func MultiFailureNodeSplit(ix *index.View) (MultiNodeSplit, error) {
	perNode := ix.NodeCounts()
	if len(perNode) == 0 {
		return MultiNodeSplit{}, ErrEmptyLog
	}
	var out MultiNodeSplit
	recs := ix.Records()
	for i := range recs {
		r := &recs[i]
		if r.Node == "" || perNode[r.Node] < 2 {
			continue
		}
		if r.Software() {
			out.Software++
		} else {
			out.Hardware++
		}
	}
	return out, nil
}

// SlotShare is one bar of Figure 5: a GPU slot's share of all GPU-card
// failure incidents (multi-GPU failures contribute one incident per
// involved card).
type SlotShare struct {
	Slot      int
	Incidents int
	Percent   float64
}

// GPUSlotDistribution computes the per-slot failure distribution within a
// node (RQ2, Figure 5). Every GPU-related record contributes one incident
// per involved slot.
func GPUSlotDistribution(ix *index.View) ([]SlotShare, error) {
	slots := failures.GPUsPerNode(ix.System())
	counts := make([]int, slots)
	total := 0
	recs := ix.Records()
	for i := range recs {
		for _, g := range recs[i].GPUs {
			if g >= 0 && g < slots {
				counts[g]++
				total++
			}
		}
	}
	if total == 0 {
		return nil, ErrEmptyLog
	}
	out := make([]SlotShare, slots)
	for i, c := range counts {
		out[i] = SlotShare{Slot: i, Incidents: c, Percent: 100 * float64(c) / float64(total)}
	}
	return out, nil
}
