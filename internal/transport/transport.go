// Package transport implements the real-network counterpart of the
// simulator: length-prefixed binary framing of msg.Message over TCP, a
// cached-connection sender whose failures surface as peer.ErrPeerDown, and
// watch-based connection-breakage notifications.
//
// The paper's architecture (§1, §4) assumes exactly this substrate: gossip
// over TCP so that omissions need not be masked by redundancy, and TCP
// doubling as the failure detector. The HyParView authors deferred a real
// deployment to future work (PlanetLab, §6); this package provides it.
//
// Two layers live here. Transport is the wire: framing, one TCP connection
// per peer pair used in both directions, a per-peer connection lifecycle
// manager (a link is born with its connection, dialed once or adopted from
// the peer, and ends with it; suspicion, graceful drain), address
// directory, watch notifications. A watched peer whose connection ends, or
// whose one dial fails, is reported down at once and never redialed: the
// connection is the failure detector (§4.1). Agent hosts the complete
// protocol stack over one Transport — HyParView membership, flood or
// Plumtree broadcast (AgentConfig.Broadcast), and optionally the X-BOT
// overlay optimizer fed by live PING/PONG RTT measurements
// (AgentConfig.Optimize) — under a single agent lock, so the same
// unsynchronized protocol code runs here and in the simulator. The
// agent also provides the real-clock half of the peer.Scheduler contract
// (one tick = 1ms): protocols schedule their own timers and periodic rounds
// — Plumtree's missing-message timer, HyParView's shuffle ΔT, X-BOT's
// optimization cadence — and the scheduled messages are dispatched exactly
// like network traffic.
package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hyparview/internal/id"
	"hyparview/internal/msg"
)

// Frame format: 4-byte big-endian payload length followed by the msg codec
// encoding. maxFrame protects against corrupt peers.
const (
	lenHeaderSize = 4
	maxFrame      = 1 << 26
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// Data-plane constants. They were options once; no caller, test or benchmark
// ever set one to anything but the value here.
const (
	dialTimeout  = 3 * time.Second // bounds connection establishment
	writeTimeout = 5 * time.Second // bounds a single frame write
	// sendQueue caps the per-peer outbound frame queue; a full one sheds the
	// frame with peer.ErrOverflow (see Send): degrade, don't die.
	sendQueue = 256
	// maxWriteBatch caps the frames one writer wakeup gathers into a single
	// vectored write (see serve).
	maxWriteBatch = 32
	// readBuffer sizes the per-connection buffered reader (see readLoop);
	// payloads larger than it bypass the buffer, still one syscall.
	readBuffer = 8 << 10
	// drainTimeout bounds the graceful flush of a peer's queued frames on
	// deliberate teardown — demotion, DISCONNECT, Close.
	drainTimeout = 200 * time.Millisecond
)

// Config carries the transport's fault-injection seams; the zero value is
// plain TCP.
type Config struct {
	// Dial, when non-nil, replaces net.DialTimeout for outbound connections:
	// the dial half of the socket-level fault seam (see faults.Sockets). It
	// owns what it dials: a connection it returns is used as is.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// WrapConn, when non-nil, wraps every accepted connection before the
	// transport uses it: the wire half of the socket-level fault seam for
	// the connections peers dial to us. An accepted connection is written
	// too once its peer's link adopts it, so write faults land on both
	// directions. Wrapped connections that do not expose syscall.Conn lose
	// the writev fast path and the Probe peek check, and those without
	// CloseWrite the half-close of a drain, which is acceptable for fault
	// injection.
	WrapConn func(net.Conn) net.Conn

	// Intercept, when non-nil, is the message-level fault-injection seam
	// (the real-socket counterpart of netsim.Sim.Intercept): it observes
	// every decoded inbound message after the address directory is absorbed
	// and before dispatch. Returning false suppresses the delivery;
	// returning a non-nil replacement dispatches it instead. It is invoked
	// from reader goroutines, so implementations must be safe for concurrent
	// use (see faults.Synchronized). The message is lent like every received
	// one (see Listen): a hook that keeps it keeps m.Clone(). Nil costs one
	// predictable branch per frame.
	Intercept func(node id.ID, m *msg.Message) (*msg.Message, bool)
}

// Stats counts transport-level events. All counters are cumulative.
type Stats struct {
	// FramesSent counts frames successfully written to a socket.
	FramesSent uint64
	// Overflowed counts frames shed because a peer's send queue was full;
	// each corresponds to one Send that returned peer.ErrOverflow.
	Overflowed uint64
	// FaultDropped counts inbound deliveries suppressed by Config.Intercept.
	FaultDropped uint64
	// WriteCalls counts vectored flushes issued by writer goroutines — one
	// per writev into the kernel, so FramesSent/WriteCalls is the write
	// path's frames-per-syscall ratio (see FramesPerWrite).
	WriteCalls uint64
	// BatchedWrites counts flushes that carried two or more frames: wakeups
	// where the batch drain actually amortized a syscall.
	BatchedWrites uint64
	// ReadSyscalls counts kernel reads across all connections. With the
	// buffered reader a back-to-back batch of small frames costs one read,
	// so FramesSent (at the peers) outpaces ReadSyscalls under load.
	ReadSyscalls uint64
	// Redials is always 0: a link dials at most once, and a broken
	// connection is a failed neighbour, not a reason to dial again. The
	// field stays until the benchmark stops reading it.
	Redials uint64
	// DialRacesLost counts first-contact dials discarded because a
	// concurrent first contact (Send, Probe or Watch) to the same peer won
	// the cache slot. Watch's dial can race a concurrent first contact on a
	// bare Transport; inside an agent the lock serializes them. A dial that
	// lands on a link the peer's own connection opened meanwhile (a
	// simultaneous open) is closed unwritten and not counted.
	DialRacesLost uint64
	// Suspected counts Suspect calls on an open transport — the agent
	// prober's half-open verdicts on stalled-but-not-closed peers — whether
	// or not the peer still had a link.
	Suspected uint64
	// Drained counts graceful teardowns that ran the deadline-bounded flush
	// of queued frames (demotion, DISCONNECT, Close — ours, or the peer's
	// half-close of a link we do not watch).
	Drained uint64
}

// FramesPerWrite reports the average number of frames flushed per vectored
// write — the write path's frames-per-syscall ratio (1.0 means no batching
// engaged; higher means queued frames were coalesced).
func (s Stats) FramesPerWrite() float64 {
	if s.WriteCalls == 0 {
		return 0
	}
	return float64(s.FramesSent) / float64(s.WriteCalls)
}

// Transport sends and receives protocol messages over TCP. One Transport
// serves one node. All exported methods are safe for concurrent use.
type Transport struct {
	self id.ID
	addr string
	cfg  Config
	book *id.Book
	ln   net.Listener

	onMessage  func(from id.ID, m msg.Message)
	onPeerDown func(peerID id.ID)

	mu      sync.Mutex
	conns   map[id.ID]*link
	inbound map[net.Conn]struct{}
	watched map[id.ID]bool
	closed  bool

	// closedFlag mirrors closed for the per-frame fast check in readLoop,
	// keeping the mutex off the receive hot path.
	closedFlag atomic.Bool

	framesSent    atomic.Uint64
	overflowed    atomic.Uint64
	faultDropped  atomic.Uint64
	writeCalls    atomic.Uint64
	batchedWrites atomic.Uint64
	readSyscalls  atomic.Uint64
	dialRacesLost atomic.Uint64
	suspected     atomic.Uint64
	drained       atomic.Uint64

	// writers tracks only the per-link writer goroutines so Close can give
	// them one bounded grace period to drain before cutting power; wg tracks
	// every transport goroutine (writers included) for the final join.
	writers sync.WaitGroup
	wg      sync.WaitGroup
}

// Listen opens a listener on addr ("host:port", ":0" for ephemeral) and
// returns a transport whose identity is derived from the bound address.
// onMessage is invoked from reader goroutines, one frame at a time per
// connection and before that connection's next frame is read —
// implementations must be concurrency-safe (see Agent). m.Payload is lent:
// it lies in the connection's read buffer, which the next frame reuses, so
// it is valid until onMessage returns, and a handler that keeps m keeps
// m.Clone() (see package peer, "Message ownership"). onPeerDown
// (may be nil) is invoked once when a watched peer fails: its connection
// ends or its one dial fails, or Suspect condemns it.
func Listen(addr string, cfg Config, onMessage func(id.ID, msg.Message), onPeerDown func(id.ID)) (*Transport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport listen %s: %w", addr, err)
	}
	bound := ln.Addr().String()
	t := &Transport{
		self:       id.FromAddr(bound),
		addr:       bound,
		cfg:        cfg,
		book:       id.NewBook(),
		ln:         ln,
		onMessage:  onMessage,
		onPeerDown: onPeerDown,
		conns:      make(map[id.ID]*link),
		inbound:    make(map[net.Conn]struct{}),
		watched:    make(map[id.ID]bool),
	}
	t.book.Put(t.self, bound)
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Self returns the transport's node identifier.
func (t *Transport) Self() id.ID { return t.self }

// Addr returns the bound listen address.
func (t *Transport) Addr() string { return t.addr }

// Register adds a (node, addr) mapping so the node becomes dialable. It
// returns the derived identifier for convenience.
func (t *Transport) Register(addr string) id.ID {
	node := id.FromAddr(addr)
	t.book.Put(node, addr)
	return node
}

// Book exposes the address book (shared with the hosting agent).
func (t *Transport) Book() *id.Book { return t.book }

// Stats returns a snapshot of the transport counters.
func (t *Transport) Stats() Stats {
	return Stats{
		FramesSent:    t.framesSent.Load(),
		Overflowed:    t.overflowed.Load(),
		FaultDropped:  t.faultDropped.Load(),
		WriteCalls:    t.writeCalls.Load(),
		BatchedWrites: t.batchedWrites.Load(),
		ReadSyscalls:  t.readSyscalls.Load(),
		DialRacesLost: t.dialRacesLost.Load(),
		Suspected:     t.suspected.Load(),
		Drained:       t.drained.Load(),
	}
}

// acceptLoop serves inbound connections.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if wrap := t.cfg.WrapConn; wrap != nil {
			c = wrap(c)
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = c.Close()
			return
		}
		t.serveInbound(c)
		t.mu.Unlock()
	}
}

// Close shuts the transport down: the listener stops, every link gets the
// same bounded graceful drain a demotion gets (queued frames flush within
// drainTimeout), stragglers are force-closed, and every goroutine is joined
// before returning.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.closedFlag.Store(true)
	links := make([]*link, 0, len(t.conns))
	for _, l := range t.conns {
		links = append(links, l)
	}
	ins := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		ins = append(ins, c)
	}
	t.mu.Unlock()

	err := t.ln.Close()
	for _, l := range links {
		l.requestDrain()
	}
	// Writers flush and exit on their own within drainTimeout; give them
	// that long plus slack, then cut the power.
	drained := make(chan struct{})
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.writers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(drainTimeout + 100*time.Millisecond):
	}
	for _, l := range links {
		t.failLink(l, false)
	}
	for _, c := range ins {
		_ = c.Close()
	}
	t.wg.Wait()
	return err
}
