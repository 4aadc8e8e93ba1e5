package transport

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hyparview/internal/id"
	"hyparview/internal/peer"
	"hyparview/internal/rng"
)

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
// budget was spent). A link opened by Watch starts out broken at epoch 0,
// so its first dial is the redial loop's first attempt. Deliberate teardown
// (Drain) short-circuits to condemned after flushing the queue.
type link struct {
	dst id.ID
	ch  chan *sendScratch // owned frames; the writer returns them to the pool

	closed chan struct{} // closed by the one condemn that wins
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

// broke retires and closes the connection serving epoch: the first reporter
// wins and the epoch's dead channel closes so the writer re-evaluates. Stale
// reporters — a reader outliving a replaced connection — find another epoch
// and cannot disturb the successor.
func (l *link) broke(epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.epoch != epoch || l.c == nil {
		return
	}
	_ = l.c.Close()
	l.c = nil
	close(l.dead)
}

// detach closes whatever connection the link holds; teardown paths call it
// once the link is condemned.
func (l *link) detach() {
	l.mu.Lock()
	c := l.c
	l.c = nil
	l.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// openLink registers a new link to dst and starts its writer. A non-nil c
// becomes its first connection (epoch 1, reader started); with c nil the
// writer begins in redial, which makes the first dial. Called under t.mu on
// an open transport: Close marks closed before waiting on the goroutine
// groups, so these Adds can never race a Wait that already saw zero.
func (t *Transport) openLink(dst id.ID, c net.Conn) *link {
	l := &link{
		dst:      dst,
		ch:       make(chan *sendScratch, sendQueue),
		closed:   make(chan struct{}),
		drainReq: make(chan struct{}),
	}
	t.conns[dst] = l
	t.writers.Add(1)
	t.wg.Add(1)
	if c != nil {
		epoch, _ := l.install(c) // nobody else has seen l: it cannot be condemned
		t.wg.Add(1)
		t.startReader(l, c, epoch)
	}
	go t.runLink(l)
	return l
}

// runLink is the link's writer goroutine, alive for the link's whole
// lifetime — across reconnects, which is what lets the send queue survive
// an outage. It pumps the queue into the current connection; with no
// connection the redial state machine decides between a backoff dial
// (watched links) and teardown.
func (t *Transport) runLink(l *link) {
	defer t.wg.Done()
	defer t.writers.Done()
	wb := batchPool.Get().(*writeBatch)
	defer batchPool.Put(wb)
	for {
		c, dead, epoch := l.current()
		if c == nil {
			if !t.redial(l, epoch) {
				return
			}
		} else if !t.serve(l, c, dead, epoch, wb) {
			return
		}
	}
}

// redial is the only code that dials a watched peer. It decides the fate of
// a link with no connection: one that broke, whose last epoch was epoch, or
// one Watch opened (epoch 0). A broken unwatched link is torn down on the
// spot: nobody asked for failure notifications and the next Send dials
// fresh. A watched link is an active-view edge — the paper's failure
// detector signal (§4.1) — so a transient outage should heal invisibly: the
// writer retries with capped decorrelated-jitter backoff until either a
// dial lands (the link resumes under a new epoch, queue intact) or the
// failure budget / suspicion window is spent and the watch fires. A Watch
// link's first attempt is its first contact, so it is not counted as a
// redial and, like the first contact of a Send, it is made even if the peer
// was unwatched since. Returns false when the writer should exit.
func (t *Transport) redial(l *link, epoch uint64) bool {
	if l.condemned.Load() {
		return false
	}
	if epoch > 0 && !t.watching(l.dst) {
		t.failLink(l, false)
		return false
	}
	r := rng.New(uint64(l.dst) ^ uint64(time.Now().UnixNano()))
	start := time.Now()
	sleep := t.cfg.RedialBase
	for attempt := 1; ; attempt++ {
		if epoch > 0 || attempt > 1 {
			t.redials.Add(1)
		}
		c, err := t.dial(l.dst)
		if err == nil {
			if installed, ok := l.install(c); ok {
				// Adding from the writer goroutine is safe: the writer itself
				// keeps t.wg above zero until after this add.
				t.wg.Add(1)
				t.startReader(l, c, installed)
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
		if !t.watching(l.dst) {
			// Unwatched mid-outage (demotion raced the redial): stop quietly.
			t.failLink(l, false)
			return false
		}
	}
}

// watching reports whether dst is watched on an open transport.
func (t *Transport) watching(dst id.ID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.watched[dst] && !t.closed
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
	close(l.closed)
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
	l.detach()
	if fire {
		t.fireWatch(l.dst)
	}
}

// drainLink is the graceful teardown: condemn (fencing senders), then flush
// whatever the queue still holds through the writev batch path under one
// drainTimeout write deadline, then close. No watch fires — a drain is
// deliberate (demotion, DISCONNECT, Close), not a failure, and the frames
// flushed here are typically the courtesy DISCONNECT itself.
func (t *Transport) drainLink(l *link, c net.Conn, wb *writeBatch) {
	if !t.condemn(l) {
		return
	}
	_ = c.SetWriteDeadline(time.Now().Add(drainTimeout))
	for {
		wb.gather(l.ch)
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
	l.detach()
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
	l.broke(epoch)
	// Between connections (mid-redial) or just-retired cache: report
	// current reachability from a throwaway dial without disturbing the
	// link's own recovery.
	cc, err := t.dial(dst)
	if err != nil {
		return err
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
// (§4.1), so Watch also ensures one exists: a peer with no link gets one
// now, with no connection yet, whose writer dials it through the redial
// loop — a transiently unreachable peer becomes retries, not an instant
// verdict, and only a spent budget fires the watch. Frames sent before the
// dial lands wait in the link's queue.
func (t *Transport) Watch(dst id.ID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.watched[dst] = true
	if _, ok := t.conns[dst]; !ok {
		t.openLink(dst, nil)
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
// frames already queued are flushed within drainTimeout, and the socket
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

// dial runs one dial attempt to dst through the configured dialer and conn
// wrapper (the socket-level fault seam). Every failure, an unknown address
// included, is a peer.ErrPeerDown.
func (t *Transport) dial(dst id.ID) (net.Conn, error) {
	addr, ok := t.book.Addr(dst)
	if !ok {
		return nil, fmt.Errorf("dial %v: unknown address: %w", dst, peer.ErrPeerDown)
	}
	var c net.Conn
	var err error
	if dial := t.cfg.Dial; dial != nil {
		c, err = dial(addr, dialTimeout)
	} else {
		c, err = net.DialTimeout("tcp", addr, dialTimeout)
	}
	if err != nil {
		return nil, fmt.Errorf("dial %v (%s): %w", dst, addr, peer.ErrPeerDown)
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
// guards established and watched links, not first contact. Only concurrent
// first contacts can race here: a watched peer always has a link.
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
	t.mu.Unlock()

	c, err := t.dial(dst)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		_ = c.Close()
		return nil, ErrClosed
	}
	if l, ok := t.conns[dst]; ok {
		_ = c.Close()
		t.dialRacesLost.Add(1)
		return l, nil
	}
	return t.openLink(dst, c), nil
}

// startReader spawns the reader goroutine for one physical connection. The
// reader turns the remote's messages into deliveries and, crucially,
// detects connection breakage: that is the TCP failure detector. The epoch
// pins its breakage report to this connection: a reader outliving a
// replaced connection cannot tear down the successor, and whoever retired
// this connection first has closed it. The caller must have added the
// goroutine to t.wg already, from a context where the add cannot race
// Close's wait — under t.mu (openLink) or from the writer (redial).
func (t *Transport) startReader(l *link, c net.Conn, epoch uint64) {
	go func() {
		defer t.wg.Done()
		t.readLoop(c)
		l.broke(epoch)
	}()
}
