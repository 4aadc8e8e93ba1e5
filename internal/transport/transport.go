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
// Two layers live here. Transport is the wire: framing, a per-peer
// connection lifecycle manager (dial, redial-with-backoff, suspicion,
// graceful drain), address directory, watch notifications. Agent hosts the
// complete protocol stack over one Transport — HyParView membership, flood
// or Plumtree broadcast (AgentConfig.Broadcast), and optionally the X-BOT
// overlay optimizer fed by live PING/PONG RTT measurements
// (AgentConfig.Optimize) — inside a single actor goroutine, so the same
// unsynchronized protocol code runs here and in the simulator. The agent
// also provides the real-clock half of the peer.Scheduler contract (one
// tick = 1ms): protocols schedule their own timers and periodic rounds —
// Plumtree's missing-message timer, HyParView's shuffle ΔT, X-BOT's
// optimization cadence — and the scheduled messages re-enter the actor loop
// exactly like network traffic.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/rng"
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
	// frame (see Send) — the same degrade-don't-die overload semantics as the
	// simulator's MaxQueue.
	sendQueue = 256
	// maxWriteBatch caps the frames one writer wakeup gathers into a single
	// vectored write (see serve).
	maxWriteBatch = 32
	// readBuffer sizes the per-connection buffered reader (see readLoop);
	// payloads larger than it bypass the buffer, still one syscall.
	readBuffer = 8 << 10
	// redialBudget caps dial attempts per outage on a watched link: transient
	// failures become retries, and only a spent budget (or
	// Config.SuspicionWindow) fires the watch.
	redialBudget = 4
)

// Config tunes the connection lifecycle's clocks and carries the
// fault-injection seams.
type Config struct {
	// RedialBase and RedialCap bound the decorrelated-jitter backoff between
	// redial attempts on a broken watched link (defaults 25ms and 500ms).
	// Each sleep is drawn from [RedialBase, 3×previous], capped, so retries
	// across peers desynchronize instead of thundering in lockstep.
	RedialBase time.Duration
	RedialCap  time.Duration
	// SuspicionWindow is the wall-clock bound on one outage: once a watched
	// link has been down this long the watch fires even if the attempt
	// budget remains (default 2s). Together with the redial budget it bounds
	// how stale an active view can get: a dead neighbor is reported within
	// roughly SuspicionWindow plus one dial timeout.
	SuspicionWindow time.Duration
	// DrainTimeout bounds the graceful flush of a peer's queued frames on
	// deliberate teardown — demotion, DISCONNECT, Close (default 200ms).
	DrainTimeout time.Duration

	// Dial, when non-nil, replaces net.DialTimeout for outbound connections:
	// the dial half of the socket-level fault seam (see faults.Sockets).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// WrapConn, when non-nil, wraps every connection — outbound
	// (inbound=false) and accepted (inbound=true) — before the transport
	// uses it: the wire half of the socket-level fault seam. Wrapped
	// connections that do not expose syscall.Conn lose the writev fast path
	// and the Probe peek check, which is acceptable for fault injection.
	WrapConn func(c net.Conn, inbound bool) net.Conn

	// Intercept, when non-nil, is the message-level fault-injection seam
	// (the real-socket counterpart of netsim.Sim.Intercept): it observes
	// every decoded inbound message after the address directory is absorbed
	// and before dispatch. Returning false suppresses the delivery;
	// returning a non-nil replacement dispatches it instead. It is invoked
	// from reader goroutines, so implementations must be safe for concurrent
	// use (see faults.Synchronized). Nil costs one predictable branch per
	// frame.
	Intercept func(node id.ID, m *msg.Message) (*msg.Message, bool)
}

func (c Config) withDefaults() Config {
	if c.RedialBase <= 0 {
		c.RedialBase = 25 * time.Millisecond
	}
	if c.RedialCap <= 0 {
		c.RedialCap = 500 * time.Millisecond
	}
	if c.SuspicionWindow <= 0 {
		c.SuspicionWindow = 2 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 200 * time.Millisecond
	}
	return c
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
	// Redials counts dial attempts made by the backoff machinery beyond a
	// link's first contact: every retry after a broken connection or a
	// failed watch-establishment dial. A rising Redials with stable views
	// means transient faults are being absorbed, which is the point.
	Redials uint64
	// DialRacesLost counts outbound dials discarded because a concurrent
	// dial to the same peer won the cache slot (previously the loser was
	// silently closed).
	DialRacesLost uint64
	// Suspected counts links condemned by Suspect — the RTT prober's
	// half-open verdict on a stalled-but-not-closed peer.
	Suspected uint64
	// Drained counts graceful teardowns that ran the deadline-bounded flush
	// of queued frames (demotion, DISCONNECT, Close).
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

	// quit is closed once on Close, releasing backoff sleeps and writer
	// selects that no connection close would reach.
	quit chan struct{}

	// closedFlag mirrors closed for the per-frame fast check in readLoop,
	// keeping the mutex off the receive hot path.
	closedFlag atomic.Bool

	framesSent    atomic.Uint64
	overflowed    atomic.Uint64
	faultDropped  atomic.Uint64
	writeCalls    atomic.Uint64
	batchedWrites atomic.Uint64
	readSyscalls  atomic.Uint64
	redials       atomic.Uint64
	dialRacesLost atomic.Uint64
	suspected     atomic.Uint64
	drained       atomic.Uint64

	// writers tracks only the per-link writer goroutines so Close can give
	// them one bounded grace period to drain before cutting power; wg tracks
	// every transport goroutine (writers included) for the final join.
	writers sync.WaitGroup
	wg      sync.WaitGroup
}

// link is one peer's connection lifecycle: a persistent writer goroutine and
// send queue that survive reconnects, plus the current physical connection
// under an epoch counter. Epochs are the no-resurrection contract: every
// reader/writer reports breakage against the epoch it was serving, so a
// stale goroutine outliving a replaced or deliberately dropped connection
// can never tear down (or revive) its successor.
//
// The lifecycle is: active (c non-nil) → broken (c nil, writer redialing
// with backoff) → active again on a successful redial, or condemned
// (removed from the table, queue reclaimed, watch fired if the failure
// budget was spent). Deliberate teardown (Drain) short-circuits to
// condemned after flushing the queue.
type link struct {
	dst id.ID
	ch  chan *sendScratch // owned frames; the writer returns them to the pool

	closed chan struct{} // closed exactly once when the link is condemned
	once   sync.Once
	// drainReq asks the writer for a graceful flush-then-close teardown.
	drainReq  chan struct{}
	drainOnce sync.Once

	// condemned fences Send admissions; inflight counts senders between
	// their admission check and enqueue, so teardown can wait them out and
	// the post-condemn queue reclaim is complete (no stranded frames).
	condemned atomic.Bool
	inflight  atomic.Int64

	deadline time.Time // armed write deadline (writer goroutine only)

	mu    sync.Mutex
	c     net.Conn      // nil while broken/redialing
	epoch uint64        // bumped for every installed connection
	dead  chan struct{} // per-epoch: closed when that epoch's conn broke
}

// shut marks the link condemned for queued and future senders.
func (l *link) shut() { l.once.Do(func() { close(l.closed) }) }

// requestDrain asks the writer for a graceful teardown (idempotent).
func (l *link) requestDrain() { l.drainOnce.Do(func() { close(l.drainReq) }) }

// enter admits a sender; pairs with exit. A condemned link admits nobody, so
// after condemnation-plus-wait the queue is final and reclaimQueue cannot
// race an enqueue.
func (l *link) enter() bool {
	l.inflight.Add(1)
	if l.condemned.Load() {
		l.inflight.Add(-1)
		return false
	}
	return true
}

func (l *link) exit() { l.inflight.Add(-1) }

// current snapshots the live connection, its epoch and the epoch's dead
// channel.
func (l *link) current() (net.Conn, chan struct{}, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c, l.dead, l.epoch
}

// install publishes a freshly dialed connection as the link's current one
// and returns its epoch. It fails when the link was condemned while the
// dial was in flight — the caller must close the connection.
func (l *link) install(c net.Conn) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.condemned.Load() {
		return 0, false
	}
	l.c = c
	l.epoch++
	l.dead = make(chan struct{})
	l.deadline = time.Time{}
	return l.epoch, true
}

// broke retires the connection serving epoch: the first reporter gets the
// connection back (to close) and the epoch's dead channel closes so the
// writer re-evaluates. Stale reporters — a reader outliving a replaced
// connection — get nil and cannot disturb the successor epoch.
func (l *link) broke(epoch uint64) net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.epoch != epoch || l.c == nil {
		return nil
	}
	c := l.c
	l.c = nil
	close(l.dead)
	return c
}

// Listen opens a listener on addr ("host:port", ":0" for ephemeral) and
// returns a transport whose identity is derived from the bound address.
// onMessage is invoked from reader goroutines — implementations must be
// concurrency-safe or hand off to a single consumer (see Agent). onPeerDown
// (may be nil) is invoked when a watched peer's connection breaks for good:
// after the redial budget or suspicion window is spent, or on Suspect.
func Listen(addr string, cfg Config, onMessage func(id.ID, msg.Message), onPeerDown func(id.ID)) (*Transport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport listen %s: %w", addr, err)
	}
	bound := ln.Addr().String()
	t := &Transport{
		self:       id.FromAddr(bound),
		addr:       bound,
		cfg:        cfg.withDefaults(),
		book:       id.NewBook(),
		ln:         ln,
		onMessage:  onMessage,
		onPeerDown: onPeerDown,
		conns:      make(map[id.ID]*link),
		inbound:    make(map[net.Conn]struct{}),
		watched:    make(map[id.ID]bool),
		quit:       make(chan struct{}),
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

// sendScratch is the per-send working memory — the frame being encoded and
// the directory side table — recycled through sendPool so the steady-state
// send path allocates nothing. The buffers are dead the moment Send returns
// (the frame bytes are on the wire, the directory was copied into the frame
// by the encoder), which is exactly the lifetime a pool wants.
type sendScratch struct {
	frame []byte
	dir   []msg.DirEntry
}

var sendPool = sync.Pool{New: func() any { return &sendScratch{} }}

// scratchBalance tracks checked-out sendScratches (gets minus puts). Frame
// buffers pass through Send, the per-peer queue, the writer's batch and —
// on connection failure — the reclaim path; the balance returning to its
// prior value is how tests prove none of those paths leaks a frame. One
// uncontended atomic add per side is noise next to the syscall it brackets.
var scratchBalance atomic.Int64

func getScratch() *sendScratch {
	scratchBalance.Add(1)
	return sendPool.Get().(*sendScratch)
}

// maxKeptBuffer caps the frame buffers that are reused — a pooled send
// scratch, a connection's read buffer. Both ratchet to the largest frame
// they have carried and maxFrame is 64 MiB, so without a cap one large
// message would pin that much per pooled scratch and per inbound connection
// for good; a larger buffer is left to the collector after its one use (the
// rule fmt follows for its pooled buffers, at the same size).
const maxKeptBuffer = 64 << 10

func putScratch(sc *sendScratch) {
	scratchBalance.Add(-1)
	if cap(sc.frame) > maxKeptBuffer {
		sc.frame = nil
	}
	sendPool.Put(sc)
}

// Send delivers m to dst over a cached or freshly dialed connection. A
// failure to dial first contact is reported as peer.ErrPeerDown. The frame
// itself is written asynchronously by the peer's writer goroutine: Send
// returns once the frame is queued, a full queue sheds the frame with
// peer.ErrOverflow (the peer is overloaded, not dead), and a write failure
// on an established watched link triggers the redial machinery — queued
// frames survive the outage — before any watch notification fires.
func (t *Transport) Send(dst id.ID, m msg.Message) error {
	l, err := t.conn(dst)
	if err != nil {
		return err
	}
	if !l.enter() {
		return fmt.Errorf("send %v: %w", dst, peer.ErrPeerDown)
	}
	defer l.exit()
	sc := getScratch()
	sc.dir = t.appendDirectory(sc.dir[:0], m)
	m.Directory = sc.dir
	frame := append(sc.frame[:0], make([]byte, lenHeaderSize)...)
	frame = msg.AppendEncode(frame, m)
	sc.frame = frame
	binary.BigEndian.PutUint32(frame[:lenHeaderSize], uint32(len(frame)-lenHeaderSize))

	select {
	case l.ch <- sc: // ownership of sc transfers to the writer goroutine
		return nil
	default:
		putScratch(sc)
		t.overflowed.Add(1)
		return fmt.Errorf("send %v: queue full: %w", dst, peer.ErrOverflow)
	}
}

// writeBatch is one writer wakeup's worth of frames: the iovec array handed
// to the kernel and the owned scratches whose frame buffers it aliases. Both
// slices ratchet to maxWriteBatch capacity and recycle through batchPool, so
// the steady-state flush allocates nothing.
type writeBatch struct {
	bufs net.Buffers
	scs  []*sendScratch
}

var batchPool = sync.Pool{New: func() any { return &writeBatch{} }}

// release returns every gathered frame to the send pool in one pass and
// empties the batch. It is the single ownership hand-back point for both the
// success path and the mid-batch failure drop.
func (wb *writeBatch) release() {
	for i, sc := range wb.scs {
		putScratch(sc)
		wb.scs[i] = nil
		wb.bufs[i] = nil
	}
	wb.scs = wb.scs[:0]
	wb.bufs = wb.bufs[:0]
}

// serveVerdict is why serve stopped pumping the current connection.
type serveVerdict uint8

const (
	serveBroken serveVerdict = iota // connection failed; redial decides
	serveDrain                      // graceful teardown requested
	serveStop                       // link condemned or transport closing
)

// runLink is the link's writer goroutine, alive for the link's whole
// lifetime — across reconnects, which is what lets the send queue survive
// an outage. It pumps the queue into the current connection; on breakage
// the redial state machine decides between a backoff retry (watched links)
// and teardown.
func (t *Transport) runLink(l *link) {
	defer t.wg.Done()
	defer t.writers.Done()
	wb := batchPool.Get().(*writeBatch)
	defer batchPool.Put(wb)
	for {
		c, dead, epoch := l.current()
		if c == nil {
			if !t.redial(l) {
				return
			}
			continue
		}
		switch t.serve(l, c, dead, epoch, wb) {
		case serveBroken:
			// Loop: redial (via the nil-conn branch) decides what happens.
		case serveDrain:
			t.drainLink(l, c, wb)
			return
		case serveStop:
			return
		}
	}
}

// serve pumps queued frames into c — gathering up to maxWriteBatch frames per
// wakeup into one vectored write, so frames-per-syscall rises with pressure
// and latency stays flat — until the connection breaks, a drain is
// requested, or the link stops. On a write failure the gathered batch is
// forfeit (the kernel may have taken any prefix of it, the same uncertainty
// a failed single write has) but still-queued frames stay for the successor
// connection.
func (t *Transport) serve(l *link, c net.Conn, dead chan struct{}, epoch uint64, wb *writeBatch) serveVerdict {
	for {
		select {
		case sc := <-l.ch:
			wb.scs = append(wb.scs, sc)
			wb.bufs = append(wb.bufs, sc.frame)
		gather:
			for len(wb.scs) < maxWriteBatch {
				select {
				case more := <-l.ch:
					wb.scs = append(wb.scs, more)
					wb.bufs = append(wb.bufs, more.frame)
				default:
					break gather
				}
			}
			err := t.flushConn(l, c, wb)
			wb.release()
			if err != nil {
				if cc := l.broke(epoch); cc != nil {
					_ = cc.Close()
				}
				return serveBroken
			}
		case <-dead:
			return serveBroken
		case <-l.drainReq:
			return serveDrain
		case <-l.closed:
			return serveStop
		case <-t.quit:
			return serveStop
		}
	}
}

// flushConn writes the gathered frames with the coalesced write deadline:
// re-armed only once the armed deadline has decayed by more than a slack
// threshold, because a frame is late only once the whole writeTimeout
// passed, so re-arming within the slack window buys nothing.
func (t *Transport) flushConn(l *link, c net.Conn, wb *writeBatch) error {
	now := time.Now()
	if l.deadline.Sub(now) < writeTimeout-writeTimeout/4 {
		l.deadline = now.Add(writeTimeout)
		if err := c.SetWriteDeadline(l.deadline); err != nil {
			return err
		}
	}
	return t.writeOut(c, wb)
}

// writeOut issues the gathered frames: a plain write for a single frame, a
// vectored write (writev on TCP) for a batch. Frame ownership stays with
// the caller — release runs either way. On failure nothing is counted: the
// connection is about to drop and the kernel may have taken any prefix of
// the batch.
func (t *Transport) writeOut(c net.Conn, wb *writeBatch) error {
	n := len(wb.bufs)
	var err error
	if n == 1 {
		_, err = c.Write(wb.bufs[0])
	} else {
		// WriteTo consumes the slice it is given, so hand it a copy of the
		// header: wb.bufs keeps the full backing array for the next wakeup.
		iov := wb.bufs
		_, err = iov.WriteTo(c)
	}
	if err != nil {
		return err
	}
	t.framesSent.Add(uint64(n))
	t.writeCalls.Add(1)
	if n > 1 {
		t.batchedWrites.Add(1)
	}
	return nil
}

// redial decides a broken link's fate. An unwatched link is torn down on
// the spot: nobody asked for failure notifications and the next Send dials
// fresh. A watched link is an active-view edge — the paper's failure
// detector signal (§4.1) — so a transient outage should heal invisibly: the
// writer retries with capped decorrelated-jitter backoff until either a
// dial lands (the link resumes under a new epoch, queue intact) or the
// failure budget / suspicion window is spent and the watch fires. Returns
// false when the writer should exit.
func (t *Transport) redial(l *link) bool {
	if l.condemned.Load() {
		return false
	}
	t.mu.Lock()
	watched := t.watched[l.dst] && !t.closed
	addr, known := t.book.Addr(l.dst)
	t.mu.Unlock()
	if !watched || !known {
		t.failLink(l, false)
		return false
	}
	r := rng.New(uint64(l.dst) ^ uint64(time.Now().UnixNano()))
	start := time.Now()
	sleep := t.cfg.RedialBase
	for attempt := 1; ; attempt++ {
		t.redials.Add(1)
		c, err := t.dialAddr(addr)
		if err == nil {
			if epoch, ok := l.install(c); ok {
				// Adding from the writer goroutine is safe: the writer itself
				// keeps t.wg above zero until after this add.
				t.wg.Add(1)
				t.startReader(l, c, epoch)
				return true
			}
			_ = c.Close() // condemned while dialing; stay down
			return false
		}
		if attempt >= redialBudget || time.Since(start) >= t.cfg.SuspicionWindow {
			t.failLink(l, true)
			return false
		}
		select {
		case <-time.After(sleep):
		case <-l.drainReq:
			// Draining a link with no connection: nothing to flush into.
			t.failLink(l, false)
			return false
		case <-l.closed:
			return false
		case <-t.quit:
			t.failLink(l, false)
			return false
		}
		sleep = nextBackoff(r, sleep, t.cfg.RedialBase, t.cfg.RedialCap)
		t.mu.Lock()
		watched = t.watched[l.dst] && !t.closed
		t.mu.Unlock()
		if !watched {
			// Unwatched mid-outage (demotion raced the redial): stop quietly.
			t.failLink(l, false)
			return false
		}
	}
}

// nextBackoff draws the next decorrelated-jitter sleep: uniform in
// [base, 3×prev], capped. Decorrelation keeps a fleet of redialing peers
// from synchronizing into retry storms the way a fixed multiplier does.
func nextBackoff(r *rng.Rand, prev, base, cap time.Duration) time.Duration {
	hi := 3 * prev
	if hi > cap {
		hi = cap
	}
	if hi <= base {
		return base
	}
	return base + time.Duration(r.Uint64n(uint64(hi-base)))
}

// condemn retires l exactly once: out of the connection table, closed to
// new senders, in-flight enqueuers waited out. The winner owns the queue
// and the connection; false means another path already did.
func (t *Transport) condemn(l *link) bool {
	if !l.condemned.CompareAndSwap(false, true) {
		return false
	}
	t.mu.Lock()
	if t.conns[l.dst] == l {
		delete(t.conns, l.dst)
	}
	t.mu.Unlock()
	l.shut()
	// Senders between enter() and their enqueue select hold no locks and
	// block on nothing; a yield loop outwaits them in nanoseconds.
	for l.inflight.Load() > 0 {
		runtime.Gosched()
	}
	return true
}

// reclaimQueue returns every queued frame to the scratch pool. Only valid
// after condemn: with senders fenced out the queue is final.
func reclaimQueue(l *link) {
	for {
		select {
		case sc := <-l.ch:
			putScratch(sc)
		default:
			return
		}
	}
}

// failLink condemns l the hard way: queued frames go back to the pool, the
// socket closes, and — when fire is set — the watch fires. Safe from any
// goroutine; only the first condemner acts.
func (t *Transport) failLink(l *link, fire bool) {
	if !t.condemn(l) {
		return
	}
	reclaimQueue(l)
	l.mu.Lock()
	c := l.c
	l.c = nil
	l.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
	if fire {
		t.fireWatch(l.dst)
	}
}

// drainLink is the graceful teardown: condemn (fencing senders), then flush
// whatever the queue still holds through the writev batch path under one
// DrainTimeout write deadline, then close. No watch fires — a drain is
// deliberate (demotion, DISCONNECT, Close), not a failure, and the frames
// flushed here are typically the courtesy DISCONNECT itself.
func (t *Transport) drainLink(l *link, c net.Conn, wb *writeBatch) {
	if !t.condemn(l) {
		return
	}
	_ = c.SetWriteDeadline(time.Now().Add(t.cfg.DrainTimeout))
	for {
	gather:
		for len(wb.scs) < maxWriteBatch {
			select {
			case sc := <-l.ch:
				wb.scs = append(wb.scs, sc)
				wb.bufs = append(wb.bufs, sc.frame)
			default:
				break gather
			}
		}
		if len(wb.scs) == 0 {
			break
		}
		err := t.writeOut(c, wb)
		wb.release()
		if err != nil {
			reclaimQueue(l)
			break
		}
	}
	l.mu.Lock()
	cc := l.c
	l.c = nil
	l.mu.Unlock()
	if cc != nil {
		_ = cc.Close()
	} else {
		_ = c.Close()
	}
	t.drained.Add(1)
}

// fireWatch delivers the peer-down notification for dst if it is still
// watched. The watch is consumed: one shot per Watch, like the paper's
// connection-loss signal.
func (t *Transport) fireWatch(dst id.ID) {
	t.mu.Lock()
	fire := t.watched[dst] && !t.closed
	if fire {
		delete(t.watched, dst)
	}
	cb := t.onPeerDown
	t.mu.Unlock()
	if fire && cb != nil {
		cb(dst)
	}
}

// Stats returns a snapshot of the transport counters.
func (t *Transport) Stats() Stats {
	return Stats{
		FramesSent:    t.framesSent.Load(),
		Overflowed:    t.overflowed.Load(),
		FaultDropped:  t.faultDropped.Load(),
		WriteCalls:    t.writeCalls.Load(),
		BatchedWrites: t.batchedWrites.Load(),
		ReadSyscalls:  t.readSyscalls.Load(),
		Redials:       t.redials.Load(),
		DialRacesLost: t.dialRacesLost.Load(),
		Suspected:     t.suspected.Load(),
		Drained:       t.drained.Load(),
	}
}

// Probe checks reachability of dst without sending anything — the paper's
// connection test before a NEIGHBOR request. A cached connection is
// health-checked with a non-consuming zero-byte peek rather than trusted: a
// dead cached connection no longer yields a false "reachable" while the
// reader has yet to observe the close. A broken cache is retired (the
// redial machinery takes over the watched-link side) and the verdict comes
// from a fresh dial; with no cache at all Probe dials and keeps the
// connection.
func (t *Transport) Probe(dst id.ID) error {
	t.mu.Lock()
	l, ok := t.conns[dst]
	t.mu.Unlock()
	if !ok {
		_, err := t.conn(dst)
		return err
	}
	c, _, epoch := l.current()
	if c != nil && connAlive(c) {
		return nil
	}
	if c != nil {
		if cc := l.broke(epoch); cc != nil {
			_ = cc.Close()
		}
	}
	// Between connections (mid-redial) or just-retired cache: report
	// current reachability from a throwaway dial without disturbing the
	// link's own recovery.
	addr, known := t.book.Addr(dst)
	if !known {
		return fmt.Errorf("probe %v: unknown address: %w", dst, peer.ErrPeerDown)
	}
	cc, err := t.dialAddr(addr)
	if err != nil {
		return fmt.Errorf("probe %v (%s): %w", dst, addr, peer.ErrPeerDown)
	}
	_ = cc.Close()
	return nil
}

// Connected reports whether a live cached connection to dst currently
// exists, without dialing. A link mid-redial reports false.
func (t *Transport) Connected(dst id.ID) bool {
	t.mu.Lock()
	l, ok := t.conns[dst]
	t.mu.Unlock()
	if !ok {
		return false
	}
	c, _, _ := l.current()
	return c != nil
}

// Watch marks dst so that a broken connection to it triggers onPeerDown.
// An active-view link is an open TCP connection in the paper's architecture
// (§4.1), so Watch also ensures one exists: it dials asynchronously with
// the same backoff and budget the redial machine applies to established
// links — a transiently unreachable peer becomes retries, not an instant
// verdict, and only a spent budget fires the watch.
func (t *Transport) Watch(dst id.ID) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.watched[dst] = true
	_, connected := t.conns[dst]
	if !connected {
		// Tracked under the same lock as the closed check, so the add cannot
		// race Close's wait.
		t.wg.Add(1)
	}
	t.mu.Unlock()
	if connected {
		return
	}
	go t.establishWatched(dst)
}

// establishWatched dials a watched peer that had no cached connection,
// retrying with backoff inside the failure budget; exhaustion fires the
// watch. Concurrent Sends may win the dial race, which is fine — the link
// exists either way.
func (t *Transport) establishWatched(dst id.ID) {
	defer t.wg.Done()
	r := rng.New(uint64(dst) ^ uint64(time.Now().UnixNano()))
	start := time.Now()
	sleep := t.cfg.RedialBase
	for attempt := 1; ; attempt++ {
		if attempt > 1 {
			t.redials.Add(1)
		}
		_, err := t.conn(dst)
		if err == nil || errors.Is(err, ErrClosed) {
			return
		}
		if attempt >= redialBudget || time.Since(start) >= t.cfg.SuspicionWindow {
			t.fireWatch(dst)
			return
		}
		select {
		case <-time.After(sleep):
		case <-t.quit:
			return
		}
		sleep = nextBackoff(r, sleep, t.cfg.RedialBase, t.cfg.RedialCap)
		t.mu.Lock()
		still := t.watched[dst] && !t.closed
		t.mu.Unlock()
		if !still {
			return
		}
	}
}

// Unwatch cancels Watch.
func (t *Transport) Unwatch(dst id.ID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.watched, dst)
}

// Suspect condemns dst's connection on external evidence of a half-open
// link — the agent's RTT prober observing N consecutive unanswered PINGs.
// TCP alone cannot tell a stalled peer from a slow one until a write times
// out; the prober can, and Suspect turns its verdict into the same signal a
// reset produces: the socket is closed proactively and the watch fires now,
// with no redial grace (the probe misses already spent the suspicion
// window).
func (t *Transport) Suspect(dst id.ID) {
	t.mu.Lock()
	l, ok := t.conns[dst]
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return
	}
	t.suspected.Add(1)
	if ok {
		t.failLink(l, true)
	} else {
		t.fireWatch(dst)
	}
}

// Drain gracefully retires the connection to dst: senders are cut off, the
// frames already queued are flushed within DrainTimeout, and the socket
// closes without firing the watch. The agent invokes it on deliberate
// demotions, so the courtesy DISCONNECT a demotion queues still reaches the
// wire before the FIN. Asynchronous and idempotent; draining an unknown
// peer is a no-op.
func (t *Transport) Drain(dst id.ID) {
	t.mu.Lock()
	delete(t.watched, dst)
	l, ok := t.conns[dst]
	t.mu.Unlock()
	if !ok {
		return
	}
	l.requestDrain()
}

// appendDirectory appends the (id, addr) side table for every identifier m
// references to dst (a reused scratch buffer), so receivers can dial nodes
// they just learned about. The paper's identifiers are (ip, port) tuples;
// this reconstructs that property over our compact IDs. Deduplication is a
// linear scan over the entries built so far: messages reference a handful of
// identifiers, and the scan keeps the hot send path free of the map and
// intermediate slice the old ReferencedIDs-based assembly allocated.
func (t *Transport) appendDirectory(dst []msg.DirEntry, m msg.Message) []msg.DirEntry {
	add := func(n id.ID) {
		if n.IsNil() {
			return
		}
		for _, d := range dst {
			if d.Node == n {
				return
			}
		}
		if addr, ok := t.book.Addr(n); ok {
			dst = append(dst, msg.DirEntry{Node: n, Addr: addr})
		}
	}
	add(m.Sender)
	add(m.Subject)
	for _, n := range m.Nodes {
		add(n)
	}
	for _, e := range m.Entries {
		add(e.Node)
	}
	return dst
}

// dialAddr runs one dial attempt through the configured dialer and conn
// wrapper (the socket-level fault seam).
func (t *Transport) dialAddr(addr string) (net.Conn, error) {
	dial := t.cfg.Dial
	var c net.Conn
	var err error
	if dial != nil {
		c, err = dial(addr, dialTimeout)
	} else {
		c, err = net.DialTimeout("tcp", addr, dialTimeout)
	}
	if err != nil {
		return nil, err
	}
	if wrap := t.cfg.WrapConn; wrap != nil {
		c = wrap(c, false)
	}
	return c, nil
}

// conn returns dst's link, dialing a first connection on demand. First
// contact is deliberately synchronous and single-attempt: the protocol
// probes before promoting (Probe → NEIGHBOR) and expects an unreachable
// fresh peer to surface as ErrPeerDown immediately — the backoff machinery
// guards established and watched links, not first contact.
func (t *Transport) conn(dst id.ID) (*link, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if l, ok := t.conns[dst]; ok {
		t.mu.Unlock()
		return l, nil
	}
	addr, ok := t.book.Addr(dst)
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dial %v: unknown address: %w", dst, peer.ErrPeerDown)
	}

	c, err := t.dialAddr(addr)
	if err != nil {
		return nil, fmt.Errorf("dial %v (%s): %w", dst, addr, peer.ErrPeerDown)
	}
	return t.adopt(dst, c)
}

// adopt registers a freshly dialed connection as dst's link and spawns its
// writer and reader goroutines. A lost dial race keeps the incumbent link
// and counts the loss.
func (t *Transport) adopt(dst id.ID, c net.Conn) (*link, error) {
	l := &link{
		dst:      dst,
		ch:       make(chan *sendScratch, sendQueue),
		closed:   make(chan struct{}),
		drainReq: make(chan struct{}),
	}
	l.c = c
	l.epoch = 1
	l.dead = make(chan struct{})

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = c.Close()
		return nil, ErrClosed
	}
	if existing, ok := t.conns[dst]; ok {
		t.mu.Unlock()
		_ = c.Close()
		t.dialRacesLost.Add(1)
		return existing, nil
	}
	t.conns[dst] = l
	// Goroutine accounting happens under the same lock as the closed check:
	// Close marks closed before waiting on these groups, so an Add can never
	// race a Wait that already saw a zero counter.
	t.writers.Add(1)
	t.wg.Add(2) // the writer and the first connection's reader
	t.mu.Unlock()

	// The reader goroutine turns the remote's messages on this connection
	// into deliveries and, crucially, detects connection breakage: that is
	// the TCP failure detector. The writer goroutine owns the link's whole
	// lifecycle (see runLink).
	go t.runLink(l)
	t.startReader(l, c, 1)
	return l, nil
}

// startReader spawns the reader goroutine for one physical connection. The
// epoch pins its breakage report to this connection: a reader outliving a
// replaced connection cannot tear down the successor. The caller must have
// added the goroutine to t.wg already, from a context where the add cannot
// race Close's wait — under t.mu (adopt) or from a wg-tracked goroutine
// (redial's writer).
func (t *Transport) startReader(l *link, c net.Conn, epoch uint64) {
	go func() {
		defer t.wg.Done()
		t.readLoop(c)
		if cc := l.broke(epoch); cc != nil {
			_ = cc.Close()
		}
		_ = c.Close()
	}()
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
			c = wrap(c, true)
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = c.Close()
			return
		}
		t.inbound[c] = struct{}{}
		t.wg.Add(1) // under the closed check's lock; cannot race Close's wait
		t.mu.Unlock()
		go func() {
			defer t.wg.Done()
			t.readLoop(c)
			t.mu.Lock()
			delete(t.inbound, c)
			t.mu.Unlock()
			_ = c.Close()
		}()
	}
}

// countingReader is the kernel-facing side of a connection's buffered
// reader: every Read is one read(2) on the socket, tallied into the
// transport's ReadSyscalls counter so frames-per-syscall is observable on
// the receive path too.
type countingReader struct {
	c net.Conn
	n *atomic.Uint64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.c.Read(p)
	r.n.Add(1)
	return n, err
}

// nopReader parks pooled bufio.Readers between connections so a pooled
// reader never pins a dead connection.
type nopReader struct{}

func (nopReader) Read([]byte) (int, error) { return 0, io.EOF }

// readerPool shares bufio.Readers across every transport in the process. A
// reader is checked out for its connection's whole lifetime, so a
// per-transport pool would hold nothing but corpses: each new transport
// (tests and benchmarks start them by the dozen) would re-allocate — and the
// runtime would re-zero — its entire working set of buffers.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nopReader{}, readBuffer) },
}

// readLoop decodes frames from c and dispatches them until the connection
// errors or the transport closes. The connection is wrapped in a sized,
// pooled buffered reader: one kernel read pulls in as many back-to-back
// frames as fit, and the length-prefix + payload decode of each is then
// buffer-only — under load the two reads per frame collapse to a fraction
// of one. The frame buffer is reused across frames: msg.Decode copies every
// variable-length field into fresh memory (nothing the protocol retains
// aliases the buffer or the read buffer), so one buffer per connection
// amortizes to zero allocations per received frame (frames beyond
// maxKeptBuffer get a buffer each), and the decode-bounds guarantees
// (maxFrame here, list/payload caps in the codec) are unchanged.
func (t *Transport) readLoop(c net.Conn) {
	cr := countingReader{c: c, n: &t.readSyscalls}
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(&cr)
	defer func() {
		br.Reset(nopReader{})
		readerPool.Put(br)
	}()
	var lenBuf [lenHeaderSize]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxFrame {
			return
		}
		if uint32(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return
		}
		m, _, err := msg.Decode(buf)
		if err != nil {
			return // corrupt peer; drop the connection
		}
		if cap(buf) > maxKeptBuffer {
			buf = nil // decoded into fresh memory: an outsize buffer is not kept
		}
		// Absorb the address side table before dispatching so the protocol
		// can immediately act on any identifier the message mentions.
		for _, d := range m.Directory {
			if d.Node != t.self && d.Addr != "" {
				t.book.Put(d.Node, d.Addr)
			}
		}
		if t.closedFlag.Load() {
			return
		}
		// The fault-injection seam: same contract as netsim.Sim.Intercept.
		// On the wire the dispatch identity is m.Sender either way, so a
		// replacement message fully controls what the stack observes.
		if hook := t.cfg.Intercept; hook != nil {
			repl, deliver := hook(t.self, &m)
			if !deliver {
				t.faultDropped.Add(1)
				continue
			}
			if repl != nil {
				m = *repl
			}
		}
		t.onMessage(m.Sender, m)
	}
}

// Close shuts the transport down: the listener stops, every link gets the
// same bounded graceful drain a demotion gets (queued frames flush within
// DrainTimeout), stragglers are force-closed, and every goroutine is joined
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
	// Writers flush and exit on their own within DrainTimeout; give them
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
	case <-time.After(t.cfg.DrainTimeout + 100*time.Millisecond):
	}
	close(t.quit)
	for _, l := range links {
		t.failLink(l, false)
	}
	for _, c := range ins {
		_ = c.Close()
	}
	t.wg.Wait()
	return err
}
