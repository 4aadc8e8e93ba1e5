package sim

import (
	"testing"

	"hyparview/internal/plumtree"
)

func TestOverheadShape(t *testing.T) {
	rows, tbl := Overhead(Options{N: 300, Seed: 2, StabilizationCycles: 20}, 5, 10)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byProto := map[Protocol]OverheadRow{}
	for _, r := range rows {
		byProto[r.Protocol] = r
	}
	hv, cy := byProto[HyParView], byProto[Cyclon]
	// HyParView floods a 5-member symmetric view: ≈ActiveSize-1 sends per
	// delivery minus the arrival link; dissemination messages per node per
	// broadcast must be below the flood bound and above 1.
	if hv.MsgsPerCast < 1 || hv.MsgsPerCast > 5 {
		t.Errorf("HyParView cast msgs/node = %.2f, implausible", hv.MsgsPerCast)
	}
	// Flood redundancy on a degree-5 overlay is ≈4 copies per delivery;
	// fanout-4 gossip sits near 4 as well but is not deterministic.
	if hv.RedundancyRatio < 2 || hv.RedundancyRatio > 5 {
		t.Errorf("HyParView redundancy = %.2f", hv.RedundancyRatio)
	}
	if cy.MsgsPerCast <= 0 {
		t.Error("Cyclon cast traffic missing")
	}
	// Membership traffic must be nonzero for all protocols that do cyclic
	// work (Scamp may be nearly silent outside heartbeats).
	if hv.MsgsPerCycle <= 0 || cy.MsgsPerCycle <= 0 {
		t.Errorf("membership traffic zero: hv=%.2f cy=%.2f", hv.MsgsPerCycle, cy.MsgsPerCycle)
	}
	if hv.BytesPerCycle <= 0 || hv.BytesPerCast <= 0 {
		t.Error("byte accounting missing")
	}
	if len(tbl.Rows) != 4 {
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
}

func TestChurnHyParViewStaysReliable(t *testing.T) {
	results, tbl := Churn(Options{N: 300, Seed: 3, StabilizationCycles: 20}, 2.0, 8, 3)
	byProto := map[Protocol]ChurnResult{}
	for _, r := range results {
		byProto[r.Protocol] = r
	}
	hv := byProto[HyParView]
	if hv.MeanReliability < 0.98 {
		t.Errorf("HyParView mean reliability under churn = %.4f, want >= 0.98", hv.MeanReliability)
	}
	if hv.FinalConnected < 0.99 {
		t.Errorf("HyParView overlay degraded under churn: lcc = %.3f", hv.FinalConnected)
	}
	if len(tbl.Rows) != 4 {
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
}

func TestChurnGrowsPopulationCorrectly(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 100, Seed: 5})
	before := len(c.IDs())
	c.addNode(101, c.IDs()[0])
	if len(c.IDs()) != before+1 {
		t.Fatal("addNode did not extend the population")
	}
	if !c.Sim.Alive(101) {
		t.Fatal("added node not alive")
	}
	if got := len(c.Membership(101).Neighbors()); got == 0 {
		t.Error("added node has no neighbors")
	}
	// The newcomer must be reachable by broadcast.
	if rel := c.Broadcast(); rel < 1.0 {
		t.Errorf("broadcast after join = %v, want 1.0", rel)
	}
}

func TestPassiveResilienceMonotone(t *testing.T) {
	tbl := PassiveResilience(Options{N: 400, Seed: 7, StabilizationCycles: 30},
		[]int{2, 30}, 80, 15)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	small := parseF(t, tbl.Rows[0][1])
	large := parseF(t, tbl.Rows[1][1])
	if large < small {
		t.Errorf("larger passive view less resilient: size2=%.3f size30=%.3f", small, large)
	}
	if large < 0.8 {
		t.Errorf("passive=30 reliability after 80%% failures = %.3f, want >= 0.8", large)
	}
}

func TestHeterogeneousDegreesShape(t *testing.T) {
	tbl := HeterogeneousDegrees(Options{N: 400, Seed: 9, StabilizationCycles: 30}, 10, 15)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	bigIn := parseF(t, tbl.Rows[0][2])
	smallIn := parseF(t, tbl.Rows[1][2])
	if bigIn <= smallIn {
		t.Errorf("big nodes not better known: big=%.2f small=%.2f", bigIn, smallIn)
	}
	bigLoad := parseF(t, tbl.Rows[0][3])
	// 10% of the nodes with 3x the view should carry clearly more than 10%
	// of the forwarding load.
	if bigLoad < 0.15 {
		t.Errorf("big nodes carry %.3f of the load, want > 0.15", bigLoad)
	}
	if conn := tbl.Rows[0][5]; conn != "true" {
		t.Error("heterogeneous overlay disconnected")
	}
}

// TestChurnUnderPlumtree runs the sustained-churn extension with the tree
// broadcast layer: lazy IHAVE links and graft repair must keep HyParView's
// reliability through continuous membership turnover, not just through the
// one-shot failures the dedicated Plumtree tests exercise.
func TestChurnUnderPlumtree(t *testing.T) {
	results, tbl := Churn(Options{
		N: 300, Seed: 13, StabilizationCycles: 20, Broadcast: BroadcastPlumtree,
	}, 2.0, 8, 3)
	byProto := map[Protocol]ChurnResult{}
	for _, r := range results {
		byProto[r.Protocol] = r
	}
	hv := byProto[HyParView]
	if hv.MeanReliability < 0.98 {
		t.Errorf("HyParView+Plumtree mean reliability under churn = %.4f, want >= 0.98",
			hv.MeanReliability)
	}
	if hv.FinalConnected < 0.99 {
		t.Errorf("HyParView+Plumtree overlay degraded under churn: lcc = %.3f", hv.FinalConnected)
	}
	if len(tbl.Rows) != 4 {
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
	// The joiners added mid-churn must have been built as Plumtree nodes.
	c := NewCluster(HyParView, Options{N: 50, Seed: 1, Broadcast: BroadcastPlumtree})
	c.addNode(51, 1)
	if _, ok := c.Gossiper(51).(*plumtree.Node); !ok {
		t.Errorf("churn joiner broadcaster is %T, want *plumtree.Node", c.Gossiper(51))
	}
}

// TestPartitionHealUnderPlumtree runs the partition/heal extension over the
// tree broadcast: each side's tree must re-form against its side's repaired
// overlay and deliver side-locally at full reliability.
func TestPartitionHealUnderPlumtree(t *testing.T) {
	res, tbl := PartitionHeal(Options{
		N: 400, Seed: 17, StabilizationCycles: 30, Broadcast: BroadcastPlumtree,
	}, 0.3, 3, 5)
	if !res.SidesConnected {
		t.Error("partition sides did not re-form internally connected overlays under Plumtree")
	}
	if res.SideReliability < 0.99 {
		t.Errorf("minority-side reliability under Plumtree = %.3f, want ≈1", res.SideReliability)
	}
	if res.MergedLCC < 0.65 {
		t.Errorf("post-heal largest component = %.3f, implausibly small", res.MergedLCC)
	}
	if len(tbl.Rows) != 1 {
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
}

func TestPartitionHealSidesStayConnected(t *testing.T) {
	res, tbl := PartitionHeal(Options{N: 400, Seed: 11, StabilizationCycles: 30}, 0.3, 3, 5)
	if !res.SidesConnected {
		t.Error("partition sides did not re-form internally connected overlays")
	}
	if res.SideReliability < 0.99 {
		t.Errorf("minority-side reliability = %.3f, want ≈1 (HyParView repairs each side)",
			res.SideReliability)
	}
	if res.MergedLCC < 0.65 {
		// Both sides must at least survive; full re-merge is not guaranteed
		// by the published protocol (see the experiment's doc comment).
		t.Errorf("post-heal largest component = %.3f, implausibly small", res.MergedLCC)
	}
	if len(tbl.Rows) != 1 {
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
}
