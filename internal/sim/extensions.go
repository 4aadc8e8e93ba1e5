package sim

// Extension experiments beyond the paper's published evaluation, covering
// its §6 future-work items:
//
//   - Overhead: the "packet overhead of our approach due to the use of TCP"
//     measurement the authors planned for PlanetLab, here measured as
//     control/dissemination messages and bytes in the simulator.
//   - Churn: sustained membership churn (the paper only evaluates one-shot
//     catastrophic failures).
//   - PassiveResilience: "the relation between the passive view size and the
//     resilience level of the protocol".
//   - Heterogeneous degrees: "experiment our approach with adaptive
//     fanouts ... nodes would be required to adapt their degree".

import (
	"fmt"

	"hyparview/internal/core"
	"hyparview/internal/graph"
	"hyparview/internal/id"
	"hyparview/internal/metrics"
)

// OverheadRow is one protocol's traffic measurement.
type OverheadRow struct {
	Protocol        Protocol
	MsgsPerCycle    float64 // membership messages per node per cycle
	BytesPerCycle   float64 // membership bytes per node per cycle
	MsgsPerCast     float64 // dissemination messages per node per broadcast
	BytesPerCast    float64 // dissemination bytes per node per broadcast
	RedundancyRatio float64 // dissemination messages / deliveries
}

// Overhead measures membership (cyclic) and dissemination traffic per
// protocol: the cost side of the paper's argument that small fanouts plus a
// passive view beat one large view with a high fanout (§5.5).
func Overhead(opts Options, cycles, casts int) ([]OverheadRow, *metrics.Table) {
	opts = opts.withDefaults()
	t := metrics.NewTable(
		fmt.Sprintf("Overhead: traffic per node (n=%d, fanout=%d)", opts.N, opts.Fanout),
		"protocol", "memb-msgs/cycle", "memb-bytes/cycle", "cast-msgs", "cast-bytes", "redundancy")
	var rows []OverheadRow
	for _, p := range AllProtocols() {
		o := opts
		o.Seed = opts.Seed + uint64(p)*7919
		c := NewCluster(p, o)
		c.Stabilize(o.StabilizationCycles)

		nodes := float64(c.Sim.AliveCount())
		before := c.Sim.Stats()
		c.Sim.RunCycles(cycles)
		mid := c.Sim.Stats()
		var uniqueDeliveries float64
		for i := 0; i < casts; i++ {
			uniqueDeliveries += c.Broadcast() * nodes
		}
		after := c.Sim.Stats()

		row := OverheadRow{
			Protocol:      p,
			MsgsPerCycle:  float64(mid.Sent-before.Sent) / float64(cycles) / nodes,
			BytesPerCycle: float64(mid.BytesSent-before.BytesSent) / float64(cycles) / nodes,
			MsgsPerCast:   float64(after.Sent-mid.Sent) / float64(casts) / nodes,
			BytesPerCast:  float64(after.BytesSent-mid.BytesSent) / float64(casts) / nodes,
		}
		if uniqueDeliveries > 0 {
			// Copies put on the wire per first-time delivery: the paper's
			// redundancy argument (§3.1).
			row.RedundancyRatio = float64(after.Sent-mid.Sent) / uniqueDeliveries
		}
		rows = append(rows, row)
		t.AddRow(p.String(), row.MsgsPerCycle, row.BytesPerCycle,
			row.MsgsPerCast, row.BytesPerCast, row.RedundancyRatio)
	}
	return rows, t
}

// ChurnResult summarizes a sustained-churn run for one protocol.
type ChurnResult struct {
	Protocol        Protocol
	MeanReliability float64
	MinReliability  float64
	FinalConnected  float64 // largest component fraction at the end
}

// Churn subjects each protocol to sustained churn: every cycle, churnPct
// percent of the live population crashes and the same number of fresh nodes
// join (through random live contacts); reliability is probed each cycle.
// This extends the paper's one-shot failure methodology to the steady-state
// churn regime of deployed systems.
func Churn(opts Options, churnPct float64, cycles, probes int) ([]ChurnResult, *metrics.Table) {
	opts = opts.withDefaults()
	t := metrics.NewTable(
		fmt.Sprintf("Churn: %.1f%%/cycle for %d cycles (n=%d)", churnPct, cycles, opts.N),
		"protocol", "mean-rel", "min-rel", "final-lcc")
	var results []ChurnResult
	for _, p := range AllProtocols() {
		o := opts
		o.Seed = opts.Seed + uint64(p)*7919
		c := NewCluster(p, o)
		c.Stabilize(o.StabilizationCycles)

		nextID := id.ID(o.N + 1)
		var rels []float64
		for cyc := 0; cyc < cycles; cyc++ {
			// Crash churnPct% of the live population...
			c.FailFraction(churnPct / 100)
			// ...and admit the same number of newcomers via live contacts.
			alive := c.Sim.AliveIDs()
			joins := int(churnPct / 100 * float64(o.N))
			for j := 0; j < joins; j++ {
				contact := alive[c.Sim.Rand().Intn(len(alive))]
				c.addNode(nextID, contact)
				nextID++
			}
			c.Sim.RunCycle()
			for pr := 0; pr < probes; pr++ {
				rels = append(rels, c.Broadcast())
			}
		}
		s := metrics.Summarize(rels)
		lcc := c.Snapshot().LargestComponentFraction()
		results = append(results, ChurnResult{
			Protocol:        p,
			MeanReliability: s.Mean,
			MinReliability:  s.Min,
			FinalConnected:  lcc,
		})
		t.AddRow(p.String(), s.Mean, s.Min, lcc)
	}
	return results, t
}

// addNode joins one additional node to a running cluster through contact.
// An unreachable contact leaves the newcomer isolated, as it would a real one.
func (c *Cluster) addNode(nodeID id.ID, contact id.ID) {
	_ = c.join(c.add(nodeID), contact)
}

// PassiveResilience sweeps the passive view size and reports post-failure
// reliability and connectivity: the paper's §6 future-work question of how
// passive capacity maps to resilience.
func PassiveResilience(opts Options, sizes []int, failPct float64, probes int) *metrics.Table {
	opts = opts.withDefaults()
	t := metrics.NewTable(
		fmt.Sprintf("PassiveResilience: reliability after %.0f%% failures vs passive size (n=%d)",
			failPct, opts.N),
		"passive-size", "mean-rel", "final-rel", "lcc")
	for _, size := range sizes {
		o := opts
		o.Seed = opts.Seed + uint64(size)*31
		kp := core.DefaultConfig().ShuffleKp
		if kp > size {
			kp = size
		}
		o.HyParView = core.Config{PassiveSize: size, ShuffleKp: kp}
		c := NewCluster(HyParView, o)
		c.Stabilize(o.StabilizationCycles)
		c.FailFraction(failPct / 100)
		rels := c.BroadcastBurst(probes)
		lcc := c.Snapshot().LargestComponentFraction()
		t.AddRow(size, metrics.Mean(rels), rels[len(rels)-1], lcc)
	}
	return t
}

// HeterogeneousDegrees implements the paper's §6 adaptive-degree idea: a
// fraction of "server-class" nodes runs with a larger active view while the
// rest keep the default. The experiment verifies the overlay stays connected
// and symmetric and reports how dissemination load concentrates on the
// larger-degree nodes.
func HeterogeneousDegrees(opts Options, bigEvery, bigActive int) *metrics.Table {
	opts = opts.withDefaults()
	t := metrics.NewTable(
		fmt.Sprintf("HeterogeneousDegrees: 1/%d nodes with active=%d (n=%d)",
			bigEvery, bigActive, opts.N),
		"class", "nodes", "mean-in-degree", "share-of-deliver-load", "symmetric", "connected")

	o := opts
	o.ConfigureHyParView = func(i int, cfg core.Config) core.Config {
		if i%bigEvery == 0 {
			cfg.ActiveSize = bigActive
			cfg.ShuffleKa = 3
		}
		return cfg
	}
	c := NewCluster(HyParView, o)
	c.Stabilize(o.StabilizationCycles)

	snap := c.Snapshot()
	ids := snap.IDs()
	in := snap.InDegrees()
	for i := 0; i < 30; i++ {
		c.Broadcast()
	}
	// Forwarded-message share approximates relative load.
	var bigIn, smallIn, bigLoad, smallLoad float64
	var bigN, smallN int
	for idx, nodeID := range ids {
		_, _, fwd, _ := c.Gossiper(nodeID).Counters()
		if int(nodeID-1)%bigEvery == 0 {
			bigN++
			bigIn += float64(in[idx])
			bigLoad += float64(fwd)
		} else {
			smallN++
			smallIn += float64(in[idx])
			smallLoad += float64(fwd)
		}
	}
	total := bigLoad + smallLoad
	sym := snap.SymmetryFraction()
	conn := snap.IsConnected()
	t.AddRow("big", bigN, bigIn/float64(bigN), bigLoad/total, fmt.Sprintf("%.3f", sym), conn)
	t.AddRow("default", smallN, smallIn/float64(smallN), smallLoad/total, fmt.Sprintf("%.3f", sym), conn)
	return t
}

// PartitionResult summarizes a partition/heal run.
type PartitionResult struct {
	// SideReliability is the broadcast reliability within the minority side
	// while the network is cut (measured against that side's population).
	SideReliability float64
	// SidesConnected reports whether each side's overlay was internally
	// connected at the end of the partition.
	SidesConnected bool
	// MergedLCC is the largest-component fraction of the whole overlay
	// after healing and healCycles membership cycles.
	MergedLCC float64
}

// PartitionHeal cuts the network in two (fraction frac on the minority
// side), lets both sides run partCycles membership cycles, heals the cut and
// runs healCycles more. HyParView repairs each side into an internally
// connected overlay almost immediately; whether the two sides RE-MERGE after
// healing depends on cross-side identifiers surviving in passive views — a
// genuine limitation of the published protocol (addressed by later work on
// overlay merging), which this experiment makes measurable.
func PartitionHeal(opts Options, frac float64, partCycles, healCycles int) (PartitionResult, *metrics.Table) {
	opts = opts.withDefaults()
	c := NewCluster(HyParView, opts)
	c.Stabilize(opts.StabilizationCycles)

	// Assign ~frac of nodes to side 1, the rest to side 0.
	side := make(map[id.ID]int, opts.N)
	cut := int(frac * float64(opts.N))
	minority := make(map[id.ID]bool, cut)
	for i, nodeID := range c.IDs() {
		if i < cut {
			side[nodeID] = 1
			minority[nodeID] = true
		}
	}
	c.Sim.Partition(func(n id.ID) int { return side[n] })
	c.Sim.Drain() // deliver the cross-cut resets, trigger repairs
	c.Sim.RunCycles(partCycles)

	// Probe reliability within the minority side.
	var minorityIDs []id.ID
	for _, nodeID := range c.Sim.AliveIDs() {
		if minority[nodeID] {
			minorityIDs = append(minorityIDs, nodeID)
		}
	}
	var sideRel float64
	for probe := 0; probe < 5; probe++ {
		src := minorityIDs[c.Sim.Rand().Intn(len(minorityIDs))]
		round := c.Tracker.NextRound()
		c.at(src).Top.Broadcast(round, nil)
		c.Sim.Drain()
		sideRel += c.Tracker.Reliability(round, len(minorityIDs))
		c.Tracker.Forget(round)
	}
	sideRel /= 5

	// Are both sides internally connected?
	sidesOK := true
	for _, grp := range []int{0, 1} {
		var ids []id.ID
		for _, nodeID := range c.Sim.AliveIDs() {
			if side[nodeID] == grp {
				ids = append(ids, nodeID)
			}
		}
		if !graph.Build(ids, c.neighbors).IsConnected() {
			sidesOK = false
		}
	}

	c.Sim.Heal()
	c.Sim.RunCycles(healCycles)
	merged := c.Snapshot().LargestComponentFraction()

	res := PartitionResult{SideReliability: sideRel, SidesConnected: sidesOK, MergedLCC: merged}
	t := metrics.NewTable(
		fmt.Sprintf("PartitionHeal: %.0f%%/%.0f%% cut for %d cycles, then heal (n=%d)",
			frac*100, 100-frac*100, partCycles, opts.N),
		"minority-side-rel", "sides-connected", "post-heal-lcc")
	t.AddRow(res.SideReliability, res.SidesConnected, res.MergedLCC)
	return res, t
}
