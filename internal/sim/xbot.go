package sim

// The X-BOT evaluation: oblivious vs optimized overlays under a non-uniform
// latency model (the SRDS 2009 companion paper's question, run under this
// paper's §5 methodology).

import (
	"fmt"

	"hyparview/internal/metrics"
	"hyparview/internal/netsim"
)

// XBotResult is one arm (oblivious or optimized) of the comparison.
type XBotResult struct {
	// Optimized reports which arm this is.
	Optimized bool
	// MeanLinkCost and P90LinkCost summarize the latency-model cost of the
	// overlay's directed active links.
	MeanLinkCost float64
	P90LinkCost  float64
	// MeanReliability and MeanMaxLatency come from a measured burst: the
	// broadcast reliability and the virtual-time latency of each message's
	// last delivery, averaged over the burst. LatencyP50 and LatencyP99 are
	// percentiles over every individual delivery latency of the burst —
	// X-BOT's cost cut must show up in the tail, not just the mean.
	MeanReliability float64
	MeanMaxLatency  float64
	LatencyP50      float64
	LatencyP99      float64
	// MeanDegree and MaxInDegree capture the degree distribution: X-BOT must
	// not trade connectivity for cost.
	MeanDegree  float64
	MaxInDegree int
	// Symmetry is the fraction of directed links whose reverse exists;
	// Connected reports whether the overlay is one component.
	Symmetry  float64
	Connected bool
	// SwapsCompleted totals the initiator-side completed swaps (0 for the
	// oblivious arm).
	SwapsCompleted uint64
}

// measureArm builds one cluster and measures everything XBotResult reports.
func measureArm(opts Options, optimized bool, msgs int) XBotResult {
	if optimized {
		opts.Optimizer = OptimizerXBot
	} else {
		opts.Optimizer = OptimizerNone
	}
	c := NewCluster(HyParView, opts)
	c.Stabilize(opts.StabilizationCycles)
	burst := c.MeasureBurst(msgs)

	costs := c.ActiveLinkCosts()
	snap := c.Snapshot()
	in := snap.InDegrees()
	maxIn := 0
	for _, d := range in {
		if d > maxIn {
			maxIn = d
		}
	}
	out := snap.OutDegrees()
	var degSum float64
	for _, d := range out {
		degSum += float64(d)
	}
	res := XBotResult{
		Optimized:       optimized,
		MeanLinkCost:    metrics.Mean(costs),
		P90LinkCost:     metrics.Percentile(costs, 90),
		MeanReliability: burst.MeanReliability,
		MeanMaxLatency:  burst.MeanMaxLatency,
		LatencyP50:      burst.LatencyP50,
		LatencyP99:      burst.LatencyP99,
		MeanDegree:      degSum / float64(len(out)),
		MaxInDegree:     maxIn,
		Symmetry:        snap.SymmetryFraction(),
		Connected:       snap.IsConnected(),
	}
	for _, nodeID := range c.Sim.AliveIDs() {
		if xn := c.at(nodeID).XBot; xn != nil {
			res.SwapsCompleted += xn.Stats().SwapsCompleted
		}
	}
	return res
}

// ObliviousVsXBot compares the paper's oblivious HyParView overlay against
// the same overlay continuously optimized by X-BOT, both built from the same
// seed under the same latency model (Euclidean by default). After
// stabilization — during which the optimizer runs as part of the membership
// cycles — it measures a burst of msgs broadcasts and the overlay's link
// costs and degree structure. The headline numbers: X-BOT must cut the mean
// active-link cost sharply (the SRDS 2009 paper reports 20–50% depending on
// the cost model) while leaving reliability, degrees and connectivity
// untouched.
func ObliviousVsXBot(opts Options, msgs int) ([2]XBotResult, *metrics.Table) {
	opts = opts.withDefaults()
	if opts.LatencyModel == nil {
		opts.LatencyModel = netsim.NewEuclidean(opts.Seed)
	}
	t := metrics.NewTable(
		fmt.Sprintf("ObliviousVsXBot: link cost and broadcast under %s latency (n=%d, %d msgs)",
			opts.LatencyModel.Name(), opts.N, msgs),
		"overlay", "mean-link-cost", "p90-link-cost", "reliability",
		"vtime-latency", "lat-p50", "lat-p99", "mean-degree", "max-in-degree",
		"symmetry", "connected", "swaps")
	var results [2]XBotResult
	for i, optimized := range []bool{false, true} {
		results[i] = measureArm(opts, optimized, msgs)
		r := results[i]
		name := "oblivious"
		if optimized {
			name = "xbot"
		}
		t.AddRow(name, r.MeanLinkCost, r.P90LinkCost, r.MeanReliability,
			r.MeanMaxLatency, r.LatencyP50, r.LatencyP99, r.MeanDegree,
			r.MaxInDegree, fmt.Sprintf("%.3f", r.Symmetry), r.Connected,
			r.SwapsCompleted)
	}
	return results, t
}
