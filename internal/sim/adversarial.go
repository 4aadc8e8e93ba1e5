package sim

// Adversarial scenario suite: hostile runs driven through the fault-injection
// seam (netsim.Sim.Intercept + internal/faults) and the simulator's failure
// and partition controls. Each scenario asserts an envelope — a floor the
// measured reliability must not fall under — so the suite doubles as the
// regression net for the bugs the injection hooks originally surfaced
// (shuffle-list poisoning, overload shedding, codec bounds).
//
// The headline row reproduces the paper's most hostile data point: 80% of a
// 1000-node overlay crashing at once, with broadcast reliability recovering
// to ≥ 0.99 (paper §5.3, figures 2–4). The remaining rows go beyond the
// published evaluation: Poisson churn, correlated flash crowds, asymmetric
// partitions healing mid-broadcast, per-link loss/reordering, Byzantine-lite
// shuffle tampering and stale-round replay.

import (
	"fmt"

	"hyparview/internal/faults"
	"hyparview/internal/id"
	"hyparview/internal/metrics"
	"hyparview/internal/msg"
	"hyparview/internal/netsim"
	"hyparview/internal/rng"
)

// faultSeedSalt decorrelates the injector's random stream from the
// simulator's own: fault draws must not perturb protocol randomness, or an
// injected run would diverge from its uninjected twin for the wrong reason.
const faultSeedSalt = 0x6a09e667f3bcc909

// FaultRand returns a fresh deterministic random stream for fault decisions,
// derived from the cluster seed but independent of the simulator's stream.
func (c *Cluster) FaultRand() *rng.Rand {
	return rng.New(c.Opts.Seed ^ faultSeedSalt)
}

// InstallFaults wires inj into the cluster's simulator as the delivery-path
// fault hook. Unset fields get deterministic defaults: Rand from the
// cluster's seed (see FaultRand), Redeliver from the simulator's hook-exempt
// re-entry path. It returns inj for chaining.
func (c *Cluster) InstallFaults(inj *faults.Injector) *faults.Injector {
	if inj.Rand == nil {
		inj.Rand = c.FaultRand()
	}
	if inj.Redeliver == nil {
		inj.Redeliver = c.Redeliver
	}
	c.Sim.Intercept = inj.Hook()
	return inj
}

// InstallHook installs a raw fault hook (e.g. a faults.Chain composition) on
// the simulator's delivery path. Pass nil to remove injection.
func (c *Cluster) InstallHook(h faults.Hook) { c.Sim.Intercept = h }

// Redeliver adapts the simulator's hook-exempt redelivery to the
// faults.Redeliver contract (errors to dead nodes are dropped, as a real
// network drops traffic to a crashed host).
func (c *Cluster) Redeliver(from, to id.ID, m msg.Message, delay uint64) {
	_ = c.Sim.Redeliver(from, to, m, delay)
}

// AdversarialPoint is one scenario's measurement against its envelope.
type AdversarialPoint struct {
	Scenario string
	// Class is the fault class exercised: none, failure, churn, partition,
	// loss, byzantine or replay.
	Class string
	// Rel and FinalRel are the mean and last-message broadcast reliability
	// over the scenario's probe burst.
	Rel      float64
	FinalRel float64
	// RMR is the relative message redundancy over the burst.
	RMR float64
	// Floor is the envelope: the reliability value the scenario's OK
	// predicate compares against (the mean for steady-state scenarios, the
	// final message for recovery scenarios — see Note).
	Floor float64
	// OK reports whether the scenario stayed inside its envelope.
	OK bool
	// FaultDropped and Redelivered surface the simulator's fault counters
	// for the scenario's whole run: deliveries suppressed by the Intercept
	// hook and messages re-injected through Redeliver (delays, duplicates,
	// replay). Zero for scenarios whose fault class never touches the seam.
	FaultDropped uint64
	Redelivered  uint64
	// Note records scenario-specific evidence (heal index, fault counters).
	Note string
}

// stampSimFaults copies the cluster simulator's fault-injection counters
// onto the point, so the table shows how much the injection seam actually
// did during the scenario.
func stampSimFaults(c *Cluster, p AdversarialPoint) AdversarialPoint {
	st := c.Sim.Stats()
	p.FaultDropped = st.FaultDropped
	p.Redelivered = st.Redelivered
	return p
}

// burstSeries probes msgs broadcasts back to back and returns the
// per-message reliability series plus the burst's RMR.
func burstSeries(c *Cluster, msgs int) ([]float64, float64) {
	d0, dup0, _, _ := c.CounterTotals()
	rels := c.BroadcastBurst(msgs)
	d1, dup1, _, _ := c.CounterTotals()
	delivered := float64(d1 - d0)
	duplicates := float64(dup1 - dup0)
	k := float64(msgs)
	return rels, metrics.RMR((delivered-k+duplicates)/k, delivered/k)
}

// healIndex returns the index of the first probe at full reliability, or -1.
func healIndex(rels []float64) int {
	for i, r := range rels {
		if r >= 0.9999 {
			return i
		}
	}
	return -1
}

// point assembles an AdversarialPoint from a measured series.
func point(scenario, class string, rels []float64, rmr, floor float64, ok bool, note string) AdversarialPoint {
	return AdversarialPoint{
		Scenario: scenario,
		Class:    class,
		Rel:      metrics.Mean(rels),
		FinalRel: rels[len(rels)-1],
		RMR:      rmr,
		Floor:    floor,
		OK:       ok,
		Note:     note,
	}
}

// Adversarial runs the full adversarial scenario table: every fault class
// injected into its own freshly built HyParView cluster, measured with a
// probe burst of msgs broadcasts. The returned points carry per-scenario
// envelope verdicts; the table is the printable form.
func Adversarial(opts Options, msgs int) ([]AdversarialPoint, *metrics.Table) {
	opts = opts.withDefaults()
	if msgs <= 0 {
		msgs = 25
	}
	points := []AdversarialPoint{
		advBaseline(opts, msgs),
		advMassFailure(opts, msgs),
		advPoissonChurn(opts, msgs),
		advFlashCrowd(opts, msgs),
		advPartitionMidcast(opts),
		advLossReorder(opts, msgs),
		advByzantineTamper(opts, msgs),
		advReplay(opts, msgs),
	}
	t := metrics.NewTable(
		fmt.Sprintf("Adversarial: fault-injection envelopes (n=%d, msgs=%d)", opts.N, msgs),
		"scenario", "class", "mean-rel", "final-rel", "rmr", "floor", "ok",
		"fault-drop", "redeliver", "note")
	for _, p := range points {
		t.AddRow(p.Scenario, p.Class, p.Rel, p.FinalRel, p.RMR, p.Floor, p.OK,
			p.FaultDropped, p.Redelivered, p.Note)
	}
	return points, t
}

// AdversarialOK reports whether every scenario stayed inside its envelope.
func AdversarialOK(points []AdversarialPoint) bool {
	for _, p := range points {
		if !p.OK {
			return false
		}
	}
	return true
}

// advBaseline is the control arm: no faults, reliability must be perfect.
func advBaseline(opts Options, msgs int) AdversarialPoint {
	c := NewCluster(HyParView, opts)
	c.Stabilize(opts.StabilizationCycles)
	rels, rmr := burstSeries(c, msgs)
	const floor = 0.999
	return stampSimFaults(c, point("baseline", "none", rels, rmr, floor,
		metrics.Mean(rels) >= floor, "no faults"))
}

// advMassFailure is the paper's headline hostile case: 80% of the overlay
// crashes at once; the burst must recover to ≥ 0.99 reliability (paper
// figures 2–4 report full recovery within a handful of messages).
func advMassFailure(opts Options, msgs int) AdversarialPoint {
	o := opts
	o.Seed = opts.Seed + 101
	c := NewCluster(HyParView, o)
	c.Stabilize(o.StabilizationCycles)
	killed := c.FailFraction(0.80)
	rels, rmr := burstSeries(c, msgs)
	const floor = 0.99
	heal := healIndex(rels)
	ok := rels[len(rels)-1] >= floor && heal >= 0
	return stampSimFaults(c, point("kill-80pct", "failure", rels, rmr, floor, ok,
		fmt.Sprintf("killed=%d healed@msg=%d", killed, heal)))
}

// advPoissonChurn drives a Poisson churn trace (memoryless joins and
// crashes) against the overlay, probing reliability every cycle.
func advPoissonChurn(opts Options, msgs int) AdversarialPoint {
	o := opts
	o.Seed = opts.Seed + 211
	c := NewCluster(HyParView, o)
	c.Stabilize(o.StabilizationCycles)

	cycles := msgs // one probe per churn cycle
	// Mean gap 0.5 cycles ⇒ ~2 membership events per probed cycle.
	trace := faults.PoissonChurn(c.FaultRand(), 0.5, uint64(cycles))
	nextID := id.ID(o.N + 1)
	var rels []float64
	ti := 0
	var joins, crashes int
	d0, dup0, _, _ := c.CounterTotals()
	for cyc := 0; cyc < cycles; cyc++ {
		for ti < len(trace) && trace[ti].At <= uint64(cyc) {
			ev := trace[ti]
			ti++
			if ev.Join {
				alive := c.Sim.AliveIDs()
				contact := alive[c.Sim.Rand().Intn(len(alive))]
				c.addNode(nextID, contact)
				nextID++
				joins++
			} else if victim, ok := c.Sim.RandomAlive(c.Sim.Rand()); ok {
				c.Sim.Fail(victim)
				crashes++
			}
		}
		c.Sim.RunCycle()
		rels = append(rels, c.Broadcast())
	}
	d1, dup1, _, _ := c.CounterTotals()
	delivered := float64(d1 - d0)
	duplicates := float64(dup1 - dup0)
	k := float64(len(rels))
	rmr := metrics.RMR((delivered-k+duplicates)/k, delivered/k)
	const floor = 0.97
	return stampSimFaults(c, point("churn-poisson", "churn", rels, rmr, floor,
		metrics.Mean(rels) >= floor,
		fmt.Sprintf("joins=%d crashes=%d", joins, crashes)))
}

// advFlashCrowd admits 10% of the population as simultaneous joins (the
// correlated burst a Poisson trace never produces) and probes right after.
func advFlashCrowd(opts Options, msgs int) AdversarialPoint {
	o := opts
	o.Seed = opts.Seed + 307
	c := NewCluster(HyParView, o)
	c.Stabilize(o.StabilizationCycles)

	crowd := faults.FlashCrowd(0, o.N/10)
	alive := c.Sim.AliveIDs()
	nextID := id.ID(o.N + 1)
	for range crowd {
		contact := alive[c.Sim.Rand().Intn(len(alive))]
		c.addNode(nextID, contact)
		nextID++
	}
	rels, rmr := burstSeries(c, msgs)
	const floor = 0.99
	return stampSimFaults(c, point("flash-crowd", "churn", rels, rmr, floor,
		metrics.Mean(rels) >= floor, fmt.Sprintf("joined=%d", len(crowd))))
}

// PartitionMidcastResult is the outcome of one partition-heal-mid-broadcast
// run (see PartitionHealMidcast).
type PartitionMidcastResult struct {
	// Reliability of the broadcast that was in flight when the cut landed,
	// measured after the heal and full quiescence.
	Reliability float64
	// PhantomEagerEdges counts Plumtree eager links pointing at peers that
	// are not overlay neighbors after the dust settles — the stale-edge bug
	// class the NeighborVersioned resync protocol exists to prevent.
	PhantomEagerEdges int
	// MinorityDelivered counts minority-side nodes that delivered.
	MinorityDelivered int
	// MinoritySize is the size of the partitioned-off side.
	MinoritySize int
	// DeliveredAtCut counts nodes (both sides) that had delivered when the
	// partition landed — the proof the broadcast was genuinely mid-flight.
	DeliveredAtCut int
	// FaultDropped and Redelivered are the simulator's fault counters for
	// the run: deliveries the partition hook suppressed, and re-injected
	// messages.
	FaultDropped uint64
	Redelivered  uint64
}

// PartitionHealMidcast cuts an asymmetric partition (plan.MinorityFrac of
// the population) while a Plumtree broadcast is in flight, heals it before
// the missing-round timers expire, and measures whether the broadcast
// converges to full reliability through the post-heal GRAFT path. Plumtree
// over a uniform latency model so "mid-flight" is a real instant; the
// missing-round timer must outlive the partition window (HealAt-CutAt) or
// grafts fire into the void.
func PartitionHealMidcast(opts Options, plan faults.PartitionPlan) PartitionMidcastResult {
	o := opts.withDefaults()
	o.Broadcast = BroadcastPlumtree
	if o.LatencyModel == nil {
		o.LatencyModel = &netsim.Uniform{Base: 10}
	}
	if o.Plumtree.TimerDelay == 0 {
		// Timers armed before or during the cut must fire after the heal.
		o.Plumtree.TimerDelay = plan.HealAt + 100
	}
	c := NewCluster(HyParView, o)
	c.Stabilize(o.StabilizationCycles)
	// Warm up the broadcast tree: the first rounds on a fresh overlay run
	// all-eager (lazy sets only grow through PRUNE), so a cold-start
	// broadcast has no IHAVE mesh to recover through. The measured round
	// must ride an established tree, where every non-tree link carries
	// announcements — Plumtree's actual repair channel.
	for i := 0; i < 10; i++ {
		c.Broadcast()
	}

	// The minority side is the first MinorityFrac of the join order.
	side := make(map[id.ID]int, o.N)
	cut := int(plan.MinorityFrac * float64(o.N))
	for i, nodeID := range c.IDs() {
		if i < cut {
			side[nodeID] = 1
		}
	}

	// Launch from a majority node, let it spread for CutAt ticks, cut,
	// hold the partition until HealAt, heal, and run to quiescence.
	src := c.ids[len(c.ids)-1]
	round := c.Tracker.NextRound()
	c.at(src).Top.Broadcast(round, nil)
	c.Sim.RunFor(plan.CutAt)
	deliveredAtCut := 0
	for _, nodeID := range c.Sim.AliveIDs() {
		if c.at(nodeID).Top.Seen(round) {
			deliveredAtCut++
		}
	}
	c.Sim.Partition(func(n id.ID) int { return side[n] })
	c.Sim.RunFor(plan.HealAt - plan.CutAt)
	c.Sim.Heal()
	// Reconcile eager sets against the repaired overlay first (Plumtree's
	// periodic housekeeping), so when the missing-round timers — armed
	// before or during the cut — fire into the healed network, the
	// graft-recovered payloads cascade eagerly along live links. A final
	// housekeeping pass retries any round whose first announcer died.
	c.Sim.RunCycles(1)
	c.Sim.RunFor(o.Plumtree.TimerDelay + 50)
	c.Sim.RunCycles(3)
	c.Sim.Drain()

	res := PartitionMidcastResult{
		Reliability:    c.Tracker.Reliability(round, c.Sim.AliveCount()),
		MinoritySize:   cut,
		DeliveredAtCut: deliveredAtCut,
	}
	for _, nodeID := range c.Sim.AliveIDs() {
		if side[nodeID] == 1 && c.at(nodeID).Top.Seen(round) {
			res.MinorityDelivered++
		}
	}
	c.Tracker.Forget(round)
	res.PhantomEagerEdges = c.PhantomEagerEdges()
	res.FaultDropped = c.Sim.Stats().FaultDropped
	res.Redelivered = c.Sim.Stats().Redelivered
	return res
}

// PhantomEagerEdges counts, over the live population, Plumtree eager links
// whose target is not a current overlay neighbor. Zero means every eager
// edge is backed by a real (symmetric, live) membership link.
func (c *Cluster) PhantomEagerEdges() int {
	count := 0
	for _, nodeID := range c.Sim.AliveIDs() {
		st := c.at(nodeID)
		if st.Plumtree == nil {
			continue
		}
		neighbors := make(map[id.ID]bool)
		for _, p := range st.Membership.Neighbors() {
			neighbors[p] = true
		}
		for _, p := range st.Plumtree.EagerPeers() {
			if !neighbors[p] {
				count++
			}
		}
	}
	return count
}

// advPartitionMidcast wraps PartitionHealMidcast as a table row: a 20%
// minority cut lands 30 ticks into an in-flight broadcast and heals 120
// ticks later; the broadcast must still converge to full reliability with
// no phantom eager edges left behind.
func advPartitionMidcast(opts Options) AdversarialPoint {
	o := opts
	o.Seed = opts.Seed + 401
	res := PartitionHealMidcast(o, faults.AsymmetricPartition(40, 160, 0.20))
	const floor = 0.999
	ok := res.Reliability >= floor && res.PhantomEagerEdges == 0
	return AdversarialPoint{
		Scenario:     "partition-heal-midcast",
		Class:        "partition",
		Rel:          res.Reliability,
		FinalRel:     res.Reliability,
		Floor:        floor,
		OK:           ok,
		FaultDropped: res.FaultDropped,
		Redelivered:  res.Redelivered,
		Note: fmt.Sprintf("minority=%d/%d delivered, phantom-eager=%d",
			res.MinorityDelivered, res.MinoritySize, res.PhantomEagerEdges),
	}
}

// advLossReorder stabilizes a clean overlay, then injects a deterministic
// per-link fault surface — every directed link gets its own drop, duplicate
// and delay (reorder) rates — and probes through it. Flood redundancy must
// absorb a few percent of loss without measurable reliability impact.
func advLossReorder(opts Options, msgs int) AdversarialPoint {
	o := opts
	o.Seed = opts.Seed + 503
	c := NewCluster(HyParView, o)
	c.Stabilize(o.StabilizationCycles)
	inj := c.InstallFaults(&faults.Injector{
		PerLink: faults.LinkProfiles(o.Seed, faults.Profile{
			Drop:      0.05, // per-link drop rate uniform in [0, 5%]
			Duplicate: 0.05,
			DupDelay:  3,
			Delay:     0.50, // up to half of a link's traffic deferred...
			MaxDelay:  5,    // ...behind up to 5 ticks of other deliveries
		}),
	})
	rels, rmr := burstSeries(c, msgs)
	st := inj.Stats()
	const floor = 0.99
	return stampSimFaults(c, point("loss-reorder", "loss", rels, rmr, floor,
		metrics.Mean(rels) >= floor,
		fmt.Sprintf("dropped=%d dup=%d delayed=%d", st.Dropped, st.Duplicated, st.Delayed)))
}

// advByzantineTamper marks 10% of the population Byzantine: their SHUFFLE
// and SHUFFLEREPLY lists are poisoned in flight (self entries, duplicates,
// fabricated identifiers) and their broadcast payloads corrupted. The
// handler-boundary sanitation must reject the poison — the run fails if no
// rejections are counted, proving the tamperer exercised the defense — and
// reliability must hold.
func advByzantineTamper(opts Options, msgs int) AdversarialPoint {
	o := opts
	o.Seed = opts.Seed + 601
	c := NewCluster(HyParView, o)
	c.Stabilize(o.StabilizationCycles)

	r := c.FaultRand()
	byz := faults.PickFraction(r, c.IDs(), 0.10)
	inj := c.InstallFaults(&faults.Injector{
		Rand: r,
		Tamper: faults.TamperBySenders(byz, faults.Tampers(
			faults.ShuffleLiar(r),
			faults.PayloadCorrupter(r),
		)),
	})
	// Shuffle rounds under tampering, then the probe burst.
	c.Stabilize(10)
	rels, rmr := burstSeries(c, msgs)

	var rejected, unsolicited uint64
	for _, nodeID := range c.Sim.AliveIDs() {
		st := c.at(nodeID).Core.Stats()
		rejected += st.ShuffleEntriesRejected
		unsolicited += st.UnsolicitedShuffleReplies
	}
	st := inj.Stats()
	const floor = 0.99
	ok := metrics.Mean(rels) >= floor && st.Tampered > 0 && rejected > 0
	return stampSimFaults(c, point("byzantine-tamper", "byzantine", rels, rmr, floor, ok,
		fmt.Sprintf("byz=%d tampered=%d rejected=%d unsolicited=%d",
			len(byz), st.Tampered, rejected, unsolicited)))
}

// advReplay records broadcast traffic in flight and re-injects stale copies
// at random receivers: the seen-tables must absorb every replay without
// double-delivering or disturbing reliability.
func advReplay(opts Options, msgs int) AdversarialPoint {
	o := opts
	o.Seed = opts.Seed + 701
	c := NewCluster(HyParView, o)
	c.Stabilize(o.StabilizationCycles)
	rp := &faults.Replayer{
		Rand:      c.FaultRand(),
		Redeliver: c.Redeliver,
		Prob:      0.05,
	}
	c.InstallHook(rp.Hook())
	rels, rmr := burstSeries(c, msgs)
	const floor = 0.999
	ok := metrics.Mean(rels) >= floor && rp.Replayed() > 0
	return stampSimFaults(c, point("replay", "replay", rels, rmr, floor, ok,
		fmt.Sprintf("replayed=%d", rp.Replayed())))
}
