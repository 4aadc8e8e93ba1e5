// Package sim is the experiment harness: it builds simulated clusters
// running one of the membership protocols under the gossip broadcast layer
// and reproduces every figure and table of the paper's evaluation (§5).
//
// Methodology (paper §5): the overlay is created by having nodes join one by
// one, without membership rounds in between; HyParView and Cyclon use a
// single contact node, SCAMP uses a random node already in the overlay. A
// stabilization period of 50 membership cycles follows. Failures are induced
// at random, and broadcast bursts are sent from random correct nodes with no
// periodic membership cycles in between — only reactive steps run.
package sim

import (
	"fmt"
	"sort"

	"hyparview/internal/core"
	"hyparview/internal/cyclon"
	"hyparview/internal/gossip"
	"hyparview/internal/graph"
	"hyparview/internal/id"
	"hyparview/internal/metrics"
	"hyparview/internal/netsim"
	"hyparview/internal/peer"
	"hyparview/internal/plumtree"
	"hyparview/internal/pubsub"
	"hyparview/internal/scamp"
	"hyparview/internal/stack"
	"hyparview/internal/xbot"
)

// Protocol selects the membership protocol under test.
type Protocol int

// The four protocols of the paper's evaluation.
const (
	HyParView Protocol = iota + 1
	Cyclon
	CyclonAcked
	Scamp
)

// String names the protocol as the paper does.
func (p Protocol) String() string {
	switch p {
	case HyParView:
		return "HyParView"
	case Cyclon:
		return "Cyclon"
	case CyclonAcked:
		return "CyclonAcked"
	case Scamp:
		return "Scamp"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// AllProtocols lists the protocols in the paper's presentation order.
func AllProtocols() []Protocol {
	return []Protocol{HyParView, CyclonAcked, Cyclon, Scamp}
}

// BroadcastProtocol selects the broadcast layer a cluster runs on top of its
// membership protocol.
type BroadcastProtocol int

// The two broadcast layers.
const (
	// BroadcastGossip is the paper's evaluation broadcast: flooding for
	// HyParView, random fanout for the peer-sampling protocols.
	BroadcastGossip BroadcastProtocol = iota
	// BroadcastPlumtree runs the Plumtree epidemic broadcast tree (eager
	// push on tree links, lazy announcements elsewhere) over the membership
	// protocol.
	BroadcastPlumtree
)

// String names the broadcast protocol.
func (b BroadcastProtocol) String() string {
	switch b {
	case BroadcastGossip:
		return "gossip"
	case BroadcastPlumtree:
		return "plumtree"
	default:
		return fmt.Sprintf("BroadcastProtocol(%d)", int(b))
	}
}

// Optimizer selects an overlay optimization layer running alongside the
// membership protocol.
type Optimizer int

// The optimization layers.
const (
	// OptimizerNone leaves the overlay oblivious, as the paper builds it.
	OptimizerNone Optimizer = iota
	// OptimizerXBot runs the X-BOT 4-node coordinated swap protocol (SRDS
	// 2009) on every node, biasing active views toward low-cost links as
	// measured by the cluster's latency model. HyParView only.
	OptimizerXBot
)

// String names the optimizer.
func (o Optimizer) String() string {
	switch o {
	case OptimizerNone:
		return "none"
	case OptimizerXBot:
		return "xbot"
	default:
		return fmt.Sprintf("Optimizer(%d)", int(o))
	}
}

// Options configures a cluster build.
type Options struct {
	// N is the cluster size (paper: 10,000).
	N int
	// Seed drives all randomness of the run.
	Seed uint64
	// Shards is the number of shards the simulator's event engine
	// partitions the node table across (netsim.NewSharded); 0, the default,
	// means 1. More shards deliver large event waves in parallel on a
	// multi-core host. The count changes how the work is spread, never the
	// run: traces and results are identical per Seed at every count — the
	// shard-determinism matrix and the cross-shard conformance suite pin
	// this.
	Shards int
	// Fanout is the gossip fan-out for the peer-sampling protocols
	// (paper §5.1: 4). HyParView floods and ignores it.
	Fanout int
	// Broadcast selects the broadcast layer: the paper's flood/fanout
	// gossip (default) or Plumtree epidemic broadcast trees.
	Broadcast BroadcastProtocol
	// Plumtree overrides Plumtree parameters when Broadcast is
	// BroadcastPlumtree; zero fields take the protocol's defaults. Over
	// HyParView and CyclonAcked the cluster forces ReportPeerDown on
	// (broadcast doubles as their failure detector, as in gossip mode).
	Plumtree plumtree.Config
	// HyParView, Cyclon and Scamp override protocol parameters; zero fields
	// take the paper's defaults.
	HyParView core.Config
	Cyclon    cyclon.Config
	Scamp     scamp.Config
	// ConfigureHyParView, when set, customizes the HyParView configuration
	// per node (by join index): the hook behind the heterogeneous-degree
	// extension experiment (paper §6 future work).
	ConfigureHyParView func(i int, cfg core.Config) core.Config
	// LatencyModel, when set, switches the simulator to event-driven virtual
	// time with the model's per-link delays, enables virtual-time delivery
	// latency in MeasureBurst and per-link cost metrics, and serves as the
	// cost oracle for Optimizer layers.
	LatencyModel netsim.LatencyModel
	// Optimizer runs an overlay optimization layer on every node. X-BOT
	// needs HyParView's symmetric reciprocal views: HyParView clusters run
	// it, the peer-sampling baselines ignore the option so protocol-sweep
	// experiments stay runnable under one option set. When no LatencyModel
	// is set, a Euclidean model seeded with Seed is installed so the
	// optimizer has a non-trivial cost surface.
	Optimizer Optimizer
	// XBot overrides X-BOT parameters when Optimizer is OptimizerXBot; zero
	// fields take the protocol's defaults.
	XBot xbot.Config
	// Oracle overrides the optimizer's link-cost source. Default: the
	// cluster's LatencyModel, so optimization minimizes exactly what the
	// simulated network charges; a custom oracle decouples the two (e.g. a
	// monetary cost surface over a latency-simulated network, or running
	// the optimizer in FIFO mode with no latency model at all).
	Oracle xbot.Oracle
	// StabilizationCycles is used by Stabilize callers that take the
	// default (paper: 50).
	StabilizationCycles int

	// PubSub, when set, wraps every node's broadcaster in a pubsub.Router
	// built from this configuration. A nil NextRound defaults to the
	// cluster Tracker's allocator so published rounds share the global
	// monotonic space; a nil Fallback defaults to the cluster's delivery
	// callback so untagged broadcast measurements keep working through the
	// wrapped stack. Per-node routers are reachable via Cluster.Router.
	PubSub *pubsub.Config

	// ShuffleInterval, when non-zero, switches HyParView clusters to the
	// paper-faithful periodic mode: every node schedules its own shuffle
	// round each ShuffleInterval virtual ticks (core.Config.ShuffleInterval)
	// and the X-BOT optimizer, when enabled, derives its attempt cadence
	// from the same clock (ShuffleInterval × XBot.Period). Stabilize then
	// advances virtual time with Sim.RunFor instead of driving external
	// RunCycle calls, so membership rounds interleave with in-flight traffic
	// in timestamp order. Zero keeps the cycle-driven mode; the
	// peer-sampling baselines (Cyclon, Scamp) are always cycle-driven.
	ShuffleInterval uint64
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Fanout == 0 {
		o.Fanout = 4
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.StabilizationCycles == 0 {
		o.StabilizationCycles = 50
	}
	if o.Optimizer != OptimizerNone && o.LatencyModel == nil && o.Oracle == nil {
		o.LatencyModel = netsim.NewEuclidean(o.Seed)
	}
	return o
}

// Cluster is a simulated population of nodes running one membership protocol
// under the gossip broadcast layer.
type Cluster struct {
	Protocol Protocol
	Opts     Options
	Sim      *netsim.Sim
	Tracker  *gossip.Tracker

	// ids and stacks hold the population in join order, which is also the
	// simulator's node-table order (Sim.Index).
	ids    []id.ID
	stacks []stack.Stack

	// Virtual-time delivery tracking: per in-flight round, the clock at
	// broadcast time (written between drains, only read during them). Only
	// populated when the simulator runs in latency mode.
	timed      bool
	roundStart map[uint64]uint64

	// parts is the delivery accounting, one part per simulator shard: the
	// wave engine delivers on one goroutine per shard, each node's Delivery
	// callback is bound to its shard's part, and so no delivery takes a lock.
	parts []deliveryPart
}

// deliveryPart is what the Delivery callbacks of one shard's nodes write to:
// a part of the reliability tracker and, in latency mode, the shard's share
// of each measured round's delivery-latency samples.
type deliveryPart struct {
	c        *Cluster
	tracker  *gossip.TrackerPart
	roundLat map[uint64]*latencyAgg
	fn       gossip.Delivery // the part's deliver method, bound once for all its nodes

	_ [64]byte // no two parts on one cache line
}

// latencyAgg collects the virtual-time latency of one shard's deliveries of
// one round; max/mean/percentiles all derive from the samples at endRound.
type latencyAgg struct {
	samples []float64
}

// NewCluster builds a cluster of opts.N nodes running proto, joined one by
// one per the paper's methodology, with all join traffic fully processed.
func NewCluster(proto Protocol, opts Options) *Cluster {
	opts = opts.withDefaults()
	c := &Cluster{
		Protocol:   proto,
		Opts:       opts,
		Sim:        netsim.NewSharded(opts.Seed, opts.Shards),
		Tracker:    gossip.NewTrackerParts(opts.Shards),
		ids:        make([]id.ID, 0, opts.N),
		stacks:     make([]stack.Stack, 0, opts.N),
		roundStart: make(map[uint64]uint64),
		parts:      make([]deliveryPart, opts.Shards),
	}
	for i := range c.parts {
		p := &c.parts[i]
		*p = deliveryPart{c: c, tracker: c.Tracker.Part(i), roundLat: make(map[uint64]*latencyAgg)}
		p.fn = p.deliver
	}
	if opts.LatencyModel != nil {
		c.Sim.Latency = opts.LatencyModel.Delay
	}
	c.timed = c.Sim.Latency != nil
	for i := 0; i < opts.N; i++ {
		st := c.add(id.ID(i + 1))
		if i == 0 {
			continue
		}
		// Paper §5: one-by-one joins, no cycles in between. HyParView
		// and Cyclon use a single contact; SCAMP uses a random node
		// already in the overlay.
		contact := c.ids[0]
		if proto == Scamp {
			contact = c.ids[c.Sim.Rand().Intn(i)]
		}
		if err := c.join(st, contact); err != nil {
			panic(fmt.Sprintf("sim: join of %v via %v failed: %v", c.ids[i], contact, err))
		}
	}
	return c
}

// add registers one more node with the simulator and assembles its protocol
// stack on the environment the simulator hands out. The returned pointer is
// valid until the next add.
func (c *Cluster) add(nodeID id.ID) *stack.Stack {
	i := len(c.ids)
	c.Sim.Add(nodeID, func(env peer.Env) peer.Process {
		c.stacks = append(c.stacks, c.build(env, i))
		return c.stacks[i].Top
	})
	c.ids = append(c.ids, nodeID)
	return &c.stacks[i]
}

// join bootstraps a freshly added node through contact and fully processes
// the join traffic.
func (c *Cluster) join(st *stack.Stack, contact id.ID) error {
	err := st.Membership.(interface{ Join(id.ID) error }).Join(contact)
	c.Sim.Drain()
	return err
}

// build assembles the stack of the node with join index i: the options in
// stack.Config's terms, plus the baseline membership protocols the stack
// package does not know.
func (c *Cluster) build(env peer.Env, i int) stack.Stack {
	cfg := stack.Config{
		Core:      c.Opts.HyParView,
		XBot:      c.Opts.XBot,
		Fanout:    c.Opts.Fanout,
		PubSub:    c.Opts.PubSub,
		NextRound: c.Tracker.NextRound,
		Deliver:   c.parts[c.Sim.ShardOf(env.Self())].fn,
	}
	if c.Opts.Broadcast == BroadcastPlumtree {
		cfg.Plumtree = &c.Opts.Plumtree
	}
	switch c.Protocol {
	case HyParView:
		cfg.RoundTicks = c.Opts.ShuffleInterval
		if c.Opts.ConfigureHyParView != nil {
			cfg.Core = c.Opts.ConfigureHyParView(i, cfg.CoreConfig())
		}
		if c.Opts.Optimizer == OptimizerXBot {
			// By default the latency model doubles as the cost oracle: its
			// Cost strips jitter, modelling a node averaging RTT probes.
			cfg.Oracle = c.Opts.Oracle
			if cfg.Oracle == nil {
				cfg.Oracle = c.Opts.LatencyModel
			}
		}
		return stack.Build(env, cfg)
	case Cyclon, CyclonAcked:
		// CyclonAcked acknowledges every send, so failed sends purge the view
		// entry; plain Cyclon gossips fire-and-forget.
		acked := c.Protocol == CyclonAcked
		ccfg := c.Opts.Cyclon
		ccfg.DetectFailures = acked
		return stack.Over(env, cyclon.New(env, ccfg), acked, cfg)
	case Scamp:
		return stack.Over(env, scamp.New(env, c.Opts.Scamp), false, cfg)
	default:
		panic(fmt.Sprintf("sim: unknown protocol %v", c.Protocol))
	}
}

// at returns the stack of nodeID, the zero Stack when the node does not
// exist.
func (c *Cluster) at(nodeID id.ID) stack.Stack {
	if i, ok := c.Sim.Index(nodeID); ok {
		return c.stacks[i]
	}
	return stack.Stack{}
}

// Router returns the pub/sub router of nodeID, or nil when Options.PubSub is
// unset or the node does not exist.
func (c *Cluster) Router(nodeID id.ID) *pubsub.Router { return c.at(nodeID).Router }

// deliver is the Delivery callback installed on every broadcaster of the
// part's shard: it feeds the reliability tracker and, in latency mode,
// aggregates virtual-time delivery latencies for rounds the harness is
// measuring. All updates commute (counter adds, max, sample append followed
// by a sort), so results are independent of how nodes are spread over shards.
func (p *deliveryPart) deliver(round uint64, topic uint32, payload []byte, hops int) {
	if c := p.c; c.timed {
		if start, ok := c.roundStart[round]; ok {
			agg := p.roundLat[round]
			if agg == nil {
				agg = &latencyAgg{}
				p.roundLat[round] = agg
			}
			agg.samples = append(agg.samples, float64(c.Sim.Now()-start))
		}
	}
	p.tracker.Deliver(round, topic, payload, hops)
}

// beginRound marks a measured broadcast's start on the virtual clock.
func (c *Cluster) beginRound(round uint64) {
	if c.timed {
		c.roundStart[round] = c.Sim.Now()
	}
}

// endRound returns the virtual-time latency of the round's last and average
// delivery plus the raw per-delivery samples (all zero/nil in FIFO mode) and
// releases the tracking state.
func (c *Cluster) endRound(round uint64) (maxLat, avgLat float64, samples []float64) {
	if !c.timed {
		return 0, 0, nil
	}
	delete(c.roundStart, round)
	for i := range c.parts {
		p := &c.parts[i]
		if agg := p.roundLat[round]; agg != nil {
			delete(p.roundLat, round)
			if samples == nil {
				samples = agg.samples // the aggregate is done with: take its buffer
			} else {
				samples = append(samples, agg.samples...)
			}
		}
	}
	if len(samples) == 0 {
		return 0, 0, nil
	}
	if len(c.parts) > 1 {
		// Each shard's samples are in its own delivery order; sort so float
		// summation (and hence the reported means) matches the one-shard run
		// bit for bit.
		sort.Float64s(samples)
	}
	var sum float64
	for _, lat := range samples {
		sum += lat
		if lat > maxLat {
			maxLat = lat
		}
	}
	return maxLat, sum / float64(len(samples)), samples
}

// Stabilize runs the given number of membership rounds (paper: 50) over the
// whole cluster. In cycle-driven mode that is RunCycle ×cycles; in periodic
// mode (Options.ShuffleInterval over HyParView) the same round count is
// expressed as a virtual-time duration and the nodes' own scheduled shuffles
// drive the protocol.
func (c *Cluster) Stabilize(cycles int) {
	if iv := c.periodicInterval(); iv > 0 {
		c.Sim.RunFor(uint64(cycles) * iv)
		return
	}
	c.Sim.RunCycles(cycles)
}

// RunFor advances the cluster's virtual time by d ticks, firing scheduled
// protocol rounds and timers along the way (duration-based methodology).
func (c *Cluster) RunFor(d uint64) { c.Sim.RunFor(d) }

// periodicInterval returns the per-round virtual-time interval when the
// cluster runs scheduler-driven membership rounds, zero otherwise.
func (c *Cluster) periodicInterval() uint64 {
	if c.Protocol == HyParView {
		return c.Opts.ShuffleInterval
	}
	return 0
}

// FailFraction crashes frac (0..1) of the currently live nodes, chosen
// uniformly at random, and returns how many were killed.
func (c *Cluster) FailFraction(frac float64) int {
	alive := c.Sim.AliveIDs()
	k := int(frac*float64(len(alive)) + 0.5)
	if k <= 0 {
		return 0
	}
	if k >= len(alive) {
		k = len(alive) - 1 // always leave at least one node to broadcast
	}
	r := c.Sim.Rand()
	r.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	for _, victim := range alive[:k] {
		c.Sim.Fail(victim)
	}
	return k
}

// broadcastMeasured sends one broadcast from a uniformly random live node,
// fully processes the resulting traffic, and returns reliability, hop
// statistics and — in latency mode — the virtual-time latency of the last
// and average delivery.
func (c *Cluster) broadcastMeasured() (rel float64, maxHops int, avgHops, maxLat, avgLat float64, lats []float64) {
	// RandomAlive + AliveCount keep the per-broadcast harness overhead
	// allocation-free; at 100k nodes the old AliveIDs snapshot was an 800KB
	// copy per message.
	source, ok := c.Sim.RandomAlive(c.Sim.Rand())
	if !ok {
		return 0, 0, 0, 0, 0, nil
	}
	alive := c.Sim.AliveCount()
	round := c.Tracker.NextRound()
	c.beginRound(round)
	c.at(source).Top.Broadcast(round, nil)
	c.Sim.Drain()
	rel = c.Tracker.Reliability(round, alive)
	maxHops = c.Tracker.MaxHops(round)
	avgHops = c.Tracker.AvgHops(round)
	c.Tracker.Forget(round)
	maxLat, avgLat, lats = c.endRound(round)
	return rel, maxHops, avgHops, maxLat, avgLat, lats
}

// Broadcast sends one broadcast from a uniformly random live node, fully
// processes the resulting traffic, and returns the message's reliability:
// the fraction of live nodes that delivered it (paper §2.5).
func (c *Cluster) Broadcast() float64 {
	rel, _, _, _, _, _ := c.broadcastMeasured()
	return rel
}

// BroadcastDetailed is Broadcast plus hop statistics: it returns the
// reliability, the maximum hop count and the average hop count of the
// deliveries.
func (c *Cluster) BroadcastDetailed() (rel float64, maxHops int, avgHops float64) {
	rel, maxHops, avgHops, _, _, _ = c.broadcastMeasured()
	return rel, maxHops, avgHops
}

// BroadcastBurst sends count broadcasts back to back (no membership cycles
// in between, per the paper's failure methodology) and returns the
// per-message reliability series.
func (c *Cluster) BroadcastBurst(count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = c.Broadcast()
	}
	return out
}

// Snapshot captures the live overlay for graph analysis. For HyParView the
// overlay is the active views (paper footnote 5).
func (c *Cluster) Snapshot() *graph.Snapshot {
	return graph.Build(c.Sim.AliveIDs(), c.neighbors)
}

// Accuracy computes the paper's view-accuracy metric over the live nodes.
func (c *Cluster) Accuracy() float64 {
	return graph.Accuracy(c.Sim.AliveIDs(), c.neighbors, c.Sim.Alive)
}

// neighbors returns the overlay out-neighbors of an existing node.
func (c *Cluster) neighbors(n id.ID) []id.ID { return c.at(n).Membership.Neighbors() }

// Membership exposes the protocol instance of one node (tests, metrics).
func (c *Cluster) Membership(n id.ID) peer.Membership { return c.at(n).Membership }

// Gossiper exposes the top of one node's stack (tests, metrics): the
// *gossip.Node or *plumtree.Node per Opts.Broadcast, or the *pubsub.Router
// wrapping it under Opts.PubSub.
func (c *Cluster) Gossiper(n id.ID) gossip.Broadcaster { return c.at(n).Top }

// CounterTotals sums the broadcast-layer counters over the whole population
// (live and failed): locally delivered first copies, redundant payload
// receptions, successful payload forwards, and rejected sends. Experiments
// snapshot the totals around a burst to compute the RMR metric.
func (c *Cluster) CounterTotals() (delivered, duplicates, forwarded, sendFails uint64) {
	for i := range c.stacks {
		d, dup, fwd, sf := c.stacks[i].Top.Counters()
		delivered += d
		duplicates += dup
		forwarded += fwd
		sendFails += sf
	}
	return delivered, duplicates, forwarded, sendFails
}

// BurstStats aggregates one measured broadcast burst.
type BurstStats struct {
	// MeanReliability and FinalReliability are the mean and last-message
	// fraction of live nodes that delivered (paper §2.5).
	MeanReliability  float64
	FinalReliability float64
	// RMR is the relative message redundancy over the burst: payload
	// messages received from the network per receiving node beyond the
	// first copy (0 = perfect spanning tree; see metrics.RMR).
	RMR float64
	// MeanMaxHops averages the per-message last-delivery hop count, the
	// paper's Table 1 latency proxy.
	MeanMaxHops float64
	// MeanMaxLatency and MeanAvgLatency average, over the burst, the
	// virtual-time (abstract ticks) latency of each message's last and mean
	// delivery. They are the wall-clock analogue of the hop metrics and stay
	// zero in FIFO mode (no latency model installed).
	MeanMaxLatency float64
	MeanAvgLatency float64
	// LatencyP50 and LatencyP99 are percentiles over every individual
	// delivery latency of the burst (all messages, all receivers): the tail
	// a mean hides. Zero in FIFO mode.
	LatencyP50 float64
	LatencyP99 float64
}

// MeasureBurst sends msgs broadcasts back to back from random live nodes
// (no membership cycles in between) and returns reliability, redundancy and
// hop statistics for the burst.
func (c *Cluster) MeasureBurst(msgs int) BurstStats {
	var out BurstStats
	if msgs <= 0 {
		return out
	}
	d0, dup0, _, _ := c.CounterTotals()
	var rels []float64
	var sumMaxHops, sumMaxLat, sumAvgLat float64
	var allLats []float64
	for i := 0; i < msgs; i++ {
		rel, maxHops, _, maxLat, avgLat, lats := c.broadcastMeasured()
		rels = append(rels, rel)
		sumMaxHops += float64(maxHops)
		sumMaxLat += maxLat
		sumAvgLat += avgLat
		allLats = append(allLats, lats...)
	}
	d1, dup1, _, _ := c.CounterTotals()
	delivered := float64(d1 - d0) // includes the msgs source-local deliveries
	duplicates := float64(dup1 - dup0)
	k := float64(msgs)
	// Per-message averages: payload receptions over the network and nodes
	// reached, then the paper's RMR formula.
	out.RMR = metrics.RMR((delivered-k+duplicates)/k, delivered/k)
	out.MeanReliability = metrics.Mean(rels)
	out.FinalReliability = rels[len(rels)-1]
	out.MeanMaxHops = sumMaxHops / k
	out.MeanMaxLatency = sumMaxLat / k
	out.MeanAvgLatency = sumAvgLat / k
	out.LatencyP50 = metrics.Percentile(allLats, 50)
	out.LatencyP99 = metrics.Percentile(allLats, 99)
	return out
}

// ActiveLinkCosts returns the latency-model cost of every directed overlay
// link of the live population, in deterministic (join, view) order. It
// returns nil when the cluster has no latency model.
func (c *Cluster) ActiveLinkCosts() []float64 {
	model := c.Opts.LatencyModel
	if model == nil {
		return nil
	}
	var out []float64
	for _, nodeID := range c.Sim.AliveIDs() {
		for _, p := range c.neighbors(nodeID) {
			out = append(out, float64(model.Cost(nodeID, p)))
		}
	}
	return out
}

// MeanActiveLinkCost averages the latency-model cost over every directed
// overlay link: the quantity X-BOT minimizes. Zero without a latency model.
func (c *Cluster) MeanActiveLinkCost() float64 {
	return metrics.Mean(c.ActiveLinkCosts())
}

// IDs returns the full population (live and failed) in join order.
func (c *Cluster) IDs() []id.ID { return c.Sim.IDs() }

// ResetSeen clears all per-node delivered-message tables; long experiments
// call this between phases to bound memory.
func (c *Cluster) ResetSeen() {
	for i := range c.stacks {
		c.stacks[i].Top.ResetSeen()
	}
}
