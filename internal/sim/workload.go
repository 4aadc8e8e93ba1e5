package sim

import (
	"encoding/binary"
	"fmt"
	"math"

	"hyparview/internal/gossip"
	"hyparview/internal/id"
	"hyparview/internal/metrics"
	"hyparview/internal/msg"
	"hyparview/internal/netsim"
	"hyparview/internal/pubsub"
	"hyparview/internal/workload"
)

// WorkloadOptions parameterizes the pub/sub workload experiment. Zero fields
// take the defaults documented per field.
type WorkloadOptions struct {
	// Events is the number of publish events replayed from the Zipfian
	// schedule (default 2000).
	Events int
	// Rate is the publish pacing: publishes per virtual tick (default 8).
	Rate int
	// Warmup is the number of untagged warm-up broadcasts before measuring
	// (default 20) — enough for Plumtree to prune its eager links into a
	// spanning tree.
	Warmup int

	// Topics, Exponent, Subscribers and PayloadBytes parameterize the
	// generator; see workload.Config. PayloadBytes is floored at 8 — the
	// harness stamps the publish tick into the first 8 payload bytes.
	Topics       int
	Exponent     float64
	Subscribers  uint64
	PayloadBytes int

	// MaxBatch, MaxBatchBytes and FlushInterval configure the batched arm
	// (defaults 16 messages, 4096 bytes, 20 ticks). The unbatched arm always
	// runs with batching disabled.
	MaxBatch      int
	MaxBatchBytes int
	FlushInterval uint64
}

// withDefaults fills unset workload options.
func (o WorkloadOptions) withDefaults() WorkloadOptions {
	if o.Events <= 0 {
		o.Events = 2000
	}
	if o.Rate <= 0 {
		o.Rate = 8
	}
	if o.Warmup <= 0 {
		o.Warmup = 20
	}
	if o.Topics <= 0 {
		o.Topics = 100
	}
	if o.Exponent == 0 {
		o.Exponent = 1.0
	}
	if o.Subscribers == 0 {
		o.Subscribers = 1_000_000
	}
	if o.PayloadBytes < 8 {
		if o.PayloadBytes <= 0 {
			o.PayloadBytes = 64
		} else {
			o.PayloadBytes = 8
		}
	}
	if o.MaxBatch <= 1 {
		o.MaxBatch = 16
	}
	if o.MaxBatchBytes <= 0 {
		o.MaxBatchBytes = 4096
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = 20
	}
	return o
}

// WorkloadPoint is one arm's end-user SLO measurement.
type WorkloadPoint struct {
	// Arm names the configuration: "unbatched" or "batched".
	Arm string
	// Events is the number of publishes replayed; Frames the broadcast
	// rounds they produced (== Events unbatched, fewer batched).
	Events int
	Frames uint64
	// Deliveries counts subscriber handler invocations across the cluster.
	Deliveries uint64
	// LatencyP50 and LatencyP99 are end-user-weighted publish→deliver
	// percentiles in virtual ticks: each delivery sample is weighted by the
	// end-users served through the delivering node for that topic, so the
	// percentile reads as "the latency the p-th percentile user saw".
	LatencyP50 float64
	LatencyP99 float64
	// MeanReliability, MinReliability and HotReliability are per-topic
	// delivered/expected fractions: mean and min over the published topics,
	// and the hottest topic's own figure.
	MeanReliability float64
	MinReliability  float64
	HotReliability  float64
	// BytesPerDelivery is total wire bytes (payload rounds, IHAVE/GRAFT
	// control, membership chatter during the run) per handler delivery.
	// HotBytesPerDelivery narrows to the hottest topic: payload-frame wire
	// bytes carrying topic 1, per topic-1 delivery — the number batching
	// must reduce to pay for itself.
	BytesPerDelivery    float64
	HotBytesPerDelivery float64
}

// Workload runs the end-user pub/sub SLO experiment: a Zipfian topic workload
// (popularity-skewed subscriptions modeling Subscribers end-users behind the
// overlay nodes, and a matching publish schedule) replayed through per-node
// pubsub.Routers over the cluster's broadcast layer, in two arms — unbatched
// and publish-side batched — under identical seeds, so the comparison
// isolates the batching policy. It reports end-user-weighted delivery-latency
// percentiles, per-topic reliability and bytes-on-wire per delivered message
// (ROADMAP: the product-facing numbers the protocol tables don't show).
//
// The simulator runs in event-driven virtual time; when opts installs no
// latency model, the Euclidean default is used so "latency" means link
// delays, not FIFO zero-time.
func Workload(opts Options, wopts WorkloadOptions) ([]WorkloadPoint, *metrics.Table) {
	opts = opts.withDefaults()
	wopts = wopts.withDefaults()
	if opts.LatencyModel == nil {
		opts.LatencyModel = netsim.NewEuclidean(opts.Seed)
	}
	t := metrics.NewTable(
		fmt.Sprintf("Workload: Zipf(s=%.2g) pub/sub over HyParView/%s (n=%d, %d topics, %d events, %.2g end-users)",
			wopts.Exponent, opts.Broadcast, opts.N, wopts.Topics, wopts.Events, float64(wopts.Subscribers)),
		"arm", "frames", "deliveries", "rel-mean", "rel-min", "rel-hot",
		"lat-p50", "lat-p99", "bytes/dlv", "hot-bytes/dlv")
	var points []WorkloadPoint
	for _, arm := range []string{"unbatched", "batched"} {
		o := opts
		// Same seed for both arms: identical overlay, subscriptions and
		// publish schedule; only the batching policy differs.
		cfg := &pubsub.Config{}
		if arm == "batched" {
			cfg.MaxBatch = wopts.MaxBatch
			cfg.MaxBatchBytes = wopts.MaxBatchBytes
			cfg.FlushInterval = wopts.FlushInterval
		}
		o.PubSub = cfg
		p := runWorkloadArm(arm, o, wopts)
		points = append(points, p)
		t.AddRow(p.Arm, p.Frames, p.Deliveries, p.MeanReliability, p.MinReliability,
			p.HotReliability, p.LatencyP50, p.LatencyP99, p.BytesPerDelivery, p.HotBytesPerDelivery)
	}
	return points, t
}

// runWorkloadArm builds one cluster, replays the schedule and measures.
func runWorkloadArm(arm string, opts Options, wopts WorkloadOptions) WorkloadPoint {
	c := NewCluster(HyParView, opts)
	c.Stabilize(opts.StabilizationCycles)
	c.BroadcastBurst(wopts.Warmup)

	w := workload.New(workload.Config{
		Seed:         opts.Seed,
		Nodes:        opts.N,
		Topics:       wopts.Topics,
		Exponent:     wopts.Exponent,
		Subscribers:  wopts.Subscribers,
		PayloadBytes: wopts.PayloadBytes,
	})

	published := make([]uint64, w.Topics()+1)
	delivered := make([]uint64, w.Topics()+1)
	var values, weights []float64
	handler := func(topic uint32, payload []byte, _ int) {
		delivered[topic]++
		if len(payload) >= 8 {
			values = append(values, float64(c.Sim.Now()-binary.BigEndian.Uint64(payload)))
			weights = append(weights, w.Weight(topic))
		}
	}
	for i, nodeID := range c.ids {
		r := c.Router(nodeID)
		for _, topic := range w.Subscriptions(i) {
			if err := r.Subscribe(topic, handler); err != nil {
				panic(fmt.Sprintf("sim: workload subscribe: %v", err))
			}
		}
	}

	// Per-topic wire accounting: every payload-round delivery carries its
	// topic tag, so the fault-injection seam doubles as a byte meter.
	topicBytes := make([]uint64, w.Topics()+1)
	c.Sim.Intercept = func(_ id.ID, m *msg.Message) (*msg.Message, bool) {
		if m.Type == msg.Gossip || m.Type == msg.PlumtreeGossip {
			if topic, _ := pubsub.SplitTopic(m.Topic); topic != 0 && topic <= uint32(w.Topics()) {
				topicBytes[topic] += uint64(m.EncodedSize())
			}
		}
		return m, true
	}
	baseBytes := c.Sim.Stats().BytesSent
	baseFrames := workloadFrames(c)

	// Drain cadence: the flood dedup cache remembers the last SeenWindow
	// round identifiers per node, so the number of rounds in flight must stay
	// below it — an evicted round's circulating copies would be re-accepted
	// and re-forwarded without end. Completing the outstanding floods every
	// half-window keeps dedup sound; virtual-time latency samples are
	// unaffected because Drain advances the clock to each delivery's own
	// timestamp.
	drainEvery := gossip.DefaultSeenWindow / 2
	for i := 0; i < wopts.Events; i++ {
		ev := w.Next()
		payload := make([]byte, wopts.PayloadBytes)
		binary.BigEndian.PutUint64(payload, c.Sim.Now())
		if err := c.Router(c.ids[ev.Node]).Publish(ev.Topic, payload); err != nil {
			panic(fmt.Sprintf("sim: workload publish: %v", err))
		}
		published[ev.Topic]++
		if (i+1)%wopts.Rate == 0 {
			c.Sim.RunFor(1)
		}
		if (i+1)%drainEvery == 0 {
			// Drain is the instantaneous-convergence operator: virtual time
			// jumps to the completion of every outstanding flood. Flush open
			// frames first so no buffered message straddles the jump and
			// charges the whole window to its delivery latency.
			flushRouters(c)
			c.Sim.Drain()
		}
	}
	// Let the periodic flush tick fire once more for still-open frames, force
	// a flush for configurations without the tick, then drain all traffic.
	c.Sim.RunFor(wopts.FlushInterval + 1)
	flushRouters(c)
	c.Sim.Drain()
	c.Sim.Intercept = nil

	p := WorkloadPoint{Arm: arm, Events: wopts.Events}
	p.Frames = workloadFrames(c) - baseFrames
	relSum, topics := 0.0, 0
	p.MinReliability = math.Inf(1)
	for topic := 1; topic <= w.Topics(); topic++ {
		p.Deliveries += delivered[topic]
		if published[topic] == 0 {
			continue
		}
		expected := float64(published[topic]) * float64(w.SubscriberNodes(uint32(topic)))
		rel := float64(delivered[topic]) / expected
		relSum += rel
		topics++
		if rel < p.MinReliability {
			p.MinReliability = rel
		}
	}
	if topics > 0 {
		p.MeanReliability = relSum / float64(topics)
	} else {
		p.MinReliability = 0
	}
	if published[1] > 0 {
		p.HotReliability = float64(delivered[1]) /
			(float64(published[1]) * float64(w.SubscriberNodes(1)))
	}
	p.LatencyP50 = metrics.WeightedPercentile(values, weights, 50)
	p.LatencyP99 = metrics.WeightedPercentile(values, weights, 99)
	if p.Deliveries > 0 {
		p.BytesPerDelivery = float64(c.Sim.Stats().BytesSent-baseBytes) / float64(p.Deliveries)
	}
	if delivered[1] > 0 {
		p.HotBytesPerDelivery = float64(topicBytes[1]) / float64(delivered[1])
	}
	return p
}

// flushRouters broadcasts every open batch frame across the cluster.
func flushRouters(c *Cluster) {
	for _, nodeID := range c.ids {
		c.Router(nodeID).Flush()
	}
}

// workloadFrames sums the publish-side broadcast-round counter over every
// router in the cluster.
func workloadFrames(c *Cluster) uint64 {
	var frames uint64
	for _, nodeID := range c.ids {
		frames += c.Router(nodeID).Stats().Frames
	}
	return frames
}

// WorkloadOK is the envelope check on a Workload run: every arm delivers with
// per-topic reliability at least 0.99, and batching reduces the hot topic's
// wire bytes per delivered message relative to the unbatched arm. The CI
// smoke gates on it.
func WorkloadOK(points []WorkloadPoint) bool {
	var unbatchedHot, batchedHot float64
	for _, p := range points {
		if p.MinReliability < 0.99 {
			return false
		}
		switch p.Arm {
		case "unbatched":
			unbatchedHot = p.HotBytesPerDelivery
		case "batched":
			batchedHot = p.HotBytesPerDelivery
		}
	}
	return batchedHot > 0 && batchedHot < unbatchedHot
}
