// Package hyparview is a Go implementation of the HyParView membership
// protocol for reliable gossip-based broadcast (Leitão, Pereira, Rodrigues —
// DSN 2007 / DI-FCUL TR-07-13), together with everything its evaluation
// needs: a deterministic protocol simulator, the Cyclon, CyclonAcked and
// SCAMP baselines, a flood/fanout gossip broadcast layer, the authors'
// companion Plumtree broadcast trees (SRDS 2007), overlay graph analysis,
// and a real TCP transport.
//
// # Quick start (real TCP, full stack)
//
// A TCP agent hosts the whole protocol stack: HyParView membership, flood or
// Plumtree broadcast, and optionally the X-BOT optimizer driven by live
// PING/PONG RTT measurements instead of the simulator's latency model:
//
//	a, err := hyparview.NewAgent("127.0.0.1:0", hyparview.AgentConfig{
//		CyclePeriod: time.Second,
//		Broadcast:   hyparview.AgentBroadcastPlumtree, // default: flood
//		Optimize:    true,                             // X-BOT over live RTTs
//		OnDeliver:   func(p []byte) { fmt.Printf("got %q\n", p) },
//	})
//	// ... a.Join(contactAddr), a.Broadcast([]byte("hello")), a.Close()
//
// A delivered payload is lent to OnDeliver and to pub/sub handlers: it is
// decoded in place in the connection's read buffer, valid until the
// callback returns, and a callback that keeps it keeps a copy.
//
// # Quick start (simulation, flood broadcast)
//
//	c := hyparview.NewCluster(hyparview.ProtoHyParView, hyparview.ClusterOptions{N: 1000})
//	c.Stabilize(50)
//	fmt.Println(c.Broadcast()) // => 1 (reliability of one flood)
//
// # Quick start (simulation, Plumtree broadcast trees)
//
// Plumtree replaces flooding's redundant payload pushes with lazy IHAVE
// announcements and a self-healing spanning tree, cutting the relative
// message redundancy (RMR) to nearly zero at equal reliability:
//
//	c := hyparview.NewCluster(hyparview.ProtoHyParView, hyparview.ClusterOptions{
//		N:         1000,
//		Broadcast: hyparview.BroadcastPlumtree,
//	})
//	c.Stabilize(50)
//	c.BroadcastBurst(20)             // let pruning carve the broadcast tree
//	fmt.Println(c.MeasureBurst(100)) // reliability 1.0 at RMR ≈ 0
//
// # Quick start (latency-aware optimization: X-BOT)
//
// A LatencyModel runs the simulation in event-driven virtual time with
// non-uniform link latencies; the X-BOT optimizer (the authors' SRDS 2009
// follow-up) then continuously rewires HyParView's active views toward
// low-cost links via 4-node coordinated swaps, without changing node
// degrees, symmetry or connectivity. The model doubles as the optimizer's
// CostOracle — deployments would plug RTT estimates instead:
//
//	c := hyparview.NewCluster(hyparview.ProtoHyParView, hyparview.ClusterOptions{
//		N:            1000,
//		LatencyModel: hyparview.NewEuclideanLatency(1),
//		Optimizer:    hyparview.OptimizerXBot,
//	})
//	c.Stabilize(50)                   // optimization runs with the cycles
//	fmt.Println(c.MeanActiveLinkCost()) // ≈ 70% below the oblivious overlay
//	fmt.Println(c.MeasureBurst(20))   // MeanMaxLatency: virtual-time delivery
//
// The facade below re-exports the library's building blocks; the
// implementation lives in internal/ packages (one per subsystem — see
// DESIGN.md for the inventory).
package hyparview

import (
	"hyparview/internal/core"
	"hyparview/internal/cyclon"
	"hyparview/internal/gossip"
	"hyparview/internal/id"
	"hyparview/internal/netsim"
	"hyparview/internal/plumtree"
	"hyparview/internal/pubsub"
	"hyparview/internal/scamp"
	"hyparview/internal/sim"
	"hyparview/internal/transport"
	"hyparview/internal/xbot"
)

// ID identifies a node in the overlay.
type ID = id.ID

// FromAddr derives a stable node identifier from a network address.
func FromAddr(addr string) ID { return id.FromAddr(addr) }

// Config carries the HyParView protocol parameters (paper §5.1 defaults via
// DefaultConfig).
type Config = core.Config

// DefaultConfig returns the paper's HyParView parameters: active view 5,
// passive view 30, ARWL 6, PRWL 3, shuffle ka=3 kp=4.
func DefaultConfig() Config { return core.DefaultConfig() }

// Listener receives active-view change notifications (NeighborUp /
// NeighborDown) from a HyParView node.
type Listener = core.Listener

// DownReason explains why a neighbor left the active view.
type DownReason = core.DownReason

// Neighbor-down reasons.
const (
	DownFailed       = core.DownFailed
	DownDisconnected = core.DownDisconnected
	DownEvicted      = core.DownEvicted
)

// CyclonConfig carries the Cyclon baseline's parameters.
type CyclonConfig = cyclon.Config

// ScampConfig carries the SCAMP baseline's parameters.
type ScampConfig = scamp.Config

// Agent is a HyParView node running over real TCP: one agent lock around
// the protocol core, the selected broadcast layer (flood or Plumtree), the
// optional X-BOT optimizer with its live RTT oracle, and the framed TCP
// transport.
type Agent = transport.Agent

// AgentConfig configures a TCP agent. Broadcast selects the broadcast layer,
// Optimize enables RTT-driven X-BOT overlay optimization, and SuspectAfter
// arms half-open neighbor detection: peers whose RTT probes go unanswered
// for that many consecutive rounds are expelled without waiting for a TCP
// write timeout.
type AgentConfig = transport.AgentConfig

// AgentBroadcastMode selects a TCP agent's broadcast layer.
type AgentBroadcastMode = transport.BroadcastMode

// TCP agent broadcast layers.
const (
	// AgentBroadcastFlood forwards payloads on every active-view link (the
	// paper's dissemination, the agent's default).
	AgentBroadcastFlood = transport.BroadcastFlood
	// AgentBroadcastPlumtree runs Plumtree epidemic broadcast trees with
	// real-clock missing-message repair timers.
	AgentBroadcastPlumtree = transport.BroadcastPlumtree
)

// AgentBroadcastStats is a snapshot of a TCP agent's broadcast-layer payload
// accounting (deliveries, duplicates, forwards, failed sends).
type AgentBroadcastStats = transport.BroadcastStats

// TransportConfig carries the TCP transport's fault-injection seams (Dial
// for the connections a node dials, WrapConn for the ones it accepts, see
// internal/faults.Sockets; Intercept). The connection lifecycle has no
// knobs: a watched peer whose connection ends, or whose one dial fails, is
// reported down at once and never redialed. Timeouts, the graceful-drain
// deadline, queue depth and batch sizing are constants.
type TransportConfig = transport.Config

// TransportStats is a snapshot of a TCP agent's data-plane and lifecycle
// counters: frames and vectored writes (their ratio is frames-per-syscall on
// the send path), kernel reads, overflow sheds, fault-injection drops, and
// the connection lifecycle manager's accounting — dial races lost, half-open
// links condemned by suspicion, and graceful drains. Redials is always 0.
type TransportStats = transport.Stats

// NewAgent starts a HyParView node listening on listenAddr.
func NewAgent(listenAddr string, cfg AgentConfig) (*Agent, error) {
	return transport.NewAgent(listenAddr, cfg)
}

// Protocol selects a membership protocol for simulated clusters.
type Protocol = sim.Protocol

// The four protocols of the paper's evaluation.
const (
	ProtoHyParView   = sim.HyParView
	ProtoCyclon      = sim.Cyclon
	ProtoCyclonAcked = sim.CyclonAcked
	ProtoScamp       = sim.Scamp
)

// Cluster is a simulated population of nodes under one membership protocol,
// following the paper's §5 methodology (one-by-one joins, stabilization
// cycles, random mass failures, broadcast bursts).
type Cluster = sim.Cluster

// ClusterOptions configures a simulated cluster.
type ClusterOptions = sim.Options

// NewCluster builds a simulated cluster of opts.N nodes running proto.
func NewCluster(proto Protocol, opts ClusterOptions) *Cluster {
	return sim.NewCluster(proto, opts)
}

// GossipMode selects the broadcast forwarding strategy.
type GossipMode = gossip.Mode

// Broadcast forwarding modes.
const (
	// GossipFlood forwards to all overlay neighbors except the sender
	// (HyParView's deterministic dissemination).
	GossipFlood = gossip.Flood
	// GossipFanout forwards to a fixed number of random view members.
	GossipFanout = gossip.Fanout
)

// BroadcastProtocol selects a simulated cluster's broadcast layer.
type BroadcastProtocol = sim.BroadcastProtocol

// The two broadcast layers.
const (
	// BroadcastGossip is the paper's evaluation broadcast: flooding for
	// HyParView, random fanout for the peer-sampling protocols.
	BroadcastGossip = sim.BroadcastGossip
	// BroadcastPlumtree runs the Plumtree epidemic broadcast tree protocol
	// (eager push on tree links, lazy IHAVE announcements elsewhere, GRAFT/
	// PRUNE tree repair) over the membership protocol.
	BroadcastPlumtree = sim.BroadcastPlumtree
)

// PlumtreeConfig carries the Plumtree broadcast layer's parameters.
type PlumtreeConfig = plumtree.Config

// Broadcaster is the contract both broadcast layers satisfy (flood/fanout
// gossip and Plumtree); Cluster.Gossiper returns one.
type Broadcaster = gossip.Broadcaster

// PubSubConfig configures the topic pub/sub router that wraps either
// broadcast layer with per-topic subscription dispatch and publish-side
// batching. Set it on AgentConfig.PubSub (TCP) or ClusterOptions.PubSub
// (simulation); the same router code runs unmodified on both runtimes.
type PubSubConfig = pubsub.Config

// PubSubHandler receives topic deliveries: topic, payload, and the gossip
// hop count at delivery time. The payload is valid until the handler
// returns; a handler that keeps it keeps a copy.
type PubSubHandler = pubsub.Handler

// PubSubStats is a cumulative snapshot of a router's publish, batching and
// delivery accounting.
type PubSubStats = pubsub.Stats

// PubSubRouter is the per-node topic pub/sub layer; Cluster.Router returns a
// simulated node's instance, TCP agents expose theirs through
// Agent.Subscribe / Agent.Publish / Agent.PubSubStats.
type PubSubRouter = pubsub.Router

// ErrNoPubSub is returned by an Agent's pub/sub methods when the agent was
// built without AgentConfig.PubSub.
var ErrNoPubSub = transport.ErrNoPubSub

// LatencyModel describes per-link latencies for event-driven (virtual-time)
// simulation: install one via ClusterOptions.LatencyModel to run any
// experiment under non-uniform latency. A model also serves as the cost
// oracle for overlay optimizers (Cost is Delay with jitter stripped).
type LatencyModel = netsim.LatencyModel

// NewUniformLatency returns the control-arm model: every link costs the
// same, so an optimizer must measure zero improvement under it.
func NewUniformLatency() LatencyModel { return netsim.NewUniform() }

// NewEuclideanLatency places nodes at hashed virtual coordinates on the unit
// square and charges the scaled Euclidean distance per link (Vivaldi-style
// network coordinates).
func NewEuclideanLatency(seed uint64) LatencyModel { return netsim.NewEuclidean(seed) }

// NewTransitStubLatency models the classic two-tier internet topology: cheap
// intra-cluster links, expensive transit-backbone crossings.
func NewTransitStubLatency(seed uint64, clusters int) LatencyModel {
	return netsim.NewTransitStub(seed, clusters)
}

// Optimizer selects an overlay optimization layer for simulated clusters.
type Optimizer = sim.Optimizer

// The optimization layers.
const (
	// OptimizerNone leaves the overlay oblivious, as the paper builds it.
	OptimizerNone = sim.OptimizerNone
	// OptimizerXBot runs the X-BOT 4-node coordinated swap protocol (the
	// authors' SRDS 2009 follow-up) on every HyParView node, continuously
	// rewiring active views toward low-cost links at unchanged degree,
	// symmetry and connectivity.
	OptimizerXBot = sim.OptimizerXBot
)

// XBotConfig carries the X-BOT optimizer's parameters (probe rate, protected
// unbiased-link floor, handshake timeout).
type XBotConfig = xbot.Config

// CostOracle measures link costs for the X-BOT optimizer. Implementations
// must be symmetric. By default a simulated cluster uses its LatencyModel;
// set ClusterOptions.Oracle to optimize against a different cost surface
// (deployments would plug RTT estimates).
type CostOracle = xbot.Oracle
