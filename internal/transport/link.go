package transport

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hyparview/internal/id"
	"hyparview/internal/peer"
)

// link is one peer's connection lifecycle: a writer goroutine and send
// queue, plus at most one physical connection (a session) in the link's
// whole life. The TCP connection is the failure detector (§4.1): when a
// watched link's connection ends — a write error, a read error, or a clean
// end of stream from a peer we still watch — the neighbour has failed. The
// link is condemned, its queued frames go back to the pool, and the watch
// fires once; nothing is redialed. The protocol repairs its active view
// from the passive view, and a later Send to the peer opens a new link.
//
// One TCP connection serves a peer pair in both directions. A link's
// session is either a connection we dialed or one the peer dialed and we
// adopted on its first frame (adopt): replies travel on the socket the
// request came in on, so the kernel piggybacks its ACKs on them.
//
// The lifecycle is: dialing (cur nil; only a link Watch opened starts
// here, and its writer makes one dial) → active (cur non-nil) → condemned
// (removed from the table, queue reclaimed, watch fired on a failure). A
// failed dial condemns the link at once. Deliberate teardown (Drain, or the
// peer's half-close on a link we do not watch) flushes the queue before it
// condemns, and fires nothing.
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

	mu  sync.Mutex
	cur *session // nil while the first dial is in flight, and once condemned
}

// session is one connection installed on a link.
type session struct {
	c       net.Conn
	inbound bool          // the peer dialed it and we adopted it
	done    chan struct{} // closed when its reader stopped; err says why
	err     error
	// deadline is the armed write deadline (writer goroutine only).
	deadline time.Time
}

// finish is a reader's last word on s: it records why the stream ended and
// wakes the writer. A clean end of stream is the writer's to judge (see
// serve); any other error fails the link at once, which also releases a
// writer blocked on a peer that stopped reading.
func (t *Transport) finish(l *link, s *session, err error) {
	s.err = err
	close(s.done)
	if err != io.EOF {
		t.failLink(l, true)
	}
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

// current snapshots the live session (nil while dialing or condemned).
func (l *link) current() *session {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur
}

// install publishes c as the link's session. It refuses — returning nil,
// and the caller keeps c — when the link was condemned or already has a
// session: one socket per link, so a connection the peer opened and adopt
// installed while our dial was in flight is never replaced mid-stream, and
// the dial is closed unwritten.
func (l *link) install(c net.Conn, inbound bool) *session {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.condemned.Load() || l.cur != nil {
		return nil
	}
	l.cur = &session{c: c, inbound: inbound, done: make(chan struct{})}
	return l.cur
}

// detach closes the link's connection; teardown paths call it once the
// link is condemned.
func (l *link) detach() {
	l.mu.Lock()
	s := l.cur
	l.cur = nil
	l.mu.Unlock()
	if s != nil {
		_ = s.c.Close()
	}
}

// openLink registers a new link to dst and starts its writer. A non-nil c
// becomes its session, returned so the caller can start a reader for a
// dialed c — an adopted one already has its reader; with c nil the writer
// makes the first dial. Called under t.mu on an open transport: Close
// marks closed before waiting on the goroutine groups, so these Adds can
// never race a Wait that already saw zero.
func (t *Transport) openLink(dst id.ID, c net.Conn, inbound bool) (*link, *session) {
	l := &link{
		dst:      dst,
		ch:       make(chan *sendScratch, sendQueue),
		closed:   make(chan struct{}),
		drainReq: make(chan struct{}),
	}
	t.conns[dst] = l
	var s *session
	if c != nil {
		s = l.install(c, inbound) // nobody else has seen l: it cannot refuse
	}
	t.writers.Add(1)
	t.wg.Add(1)
	go t.runLink(l)
	return l, s
}

// adopt makes c, an accepted connection whose first frame came from sender,
// sender's link when that link has no session: a link to a stranger is
// opened around it, and a link opened by Watch whose dial is in flight
// takes it, which makes the dial's connection redundant (see dialLink).
// The reader that read the frame stays c's reader; it gets the session
// back, or nil when c stays a read-only connection (the link already has a
// session — a simultaneous open — or the sender is nil or ourselves). This
// trusts m.Sender exactly as far as dispatch and the address directory do.
func (t *Transport) adopt(sender id.ID, c net.Conn) (*link, *session) {
	if sender.IsNil() || sender == t.self {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, nil
	}
	l, ok := t.conns[sender]
	if !ok {
		return t.openLink(sender, c, true)
	}
	return l, l.install(c, true)
}

// runLink is the link's writer goroutine, alive for the link's whole
// lifetime. A link Watch opened makes its one dial first; then the writer
// pumps the queue into the session until the link ends.
func (t *Transport) runLink(l *link) {
	defer t.wg.Done()
	defer t.writers.Done()
	s := l.current()
	if s == nil {
		if s = t.dialLink(l); s == nil {
			return
		}
	}
	wb := batchPool.Get().(*writeBatch)
	t.serve(l, s, wb)
	batchPool.Put(wb)
}

// dialLink makes the one dial of a link Watch opened and returns the
// session the writer serves, or nil once the link is condemned. The dial is
// the peer's first contact, made even if the peer was unwatched since, as
// a Send's first contact is. A failed dial fails the link: the watch fires
// at once, and the frames queued behind the dial go back to the pool. An
// adoption — the peer dialed us first — gives the link its session as a
// landed dial would; a dial that lands after one is closed unwritten.
func (t *Transport) dialLink(l *link) *session {
	c, err := t.dial(l.dst)
	if err != nil {
		if s := l.current(); s != nil {
			return s
		}
		t.failLink(l, true)
		return nil
	}
	if s := l.install(c, false); s != nil {
		// Adding from the writer goroutine is safe: the writer itself keeps
		// t.wg above zero until after this add.
		t.wg.Add(1)
		t.startReader(l, s)
		return s
	}
	_ = c.Close()
	return l.current() // the adopted session, or nil once condemned
}

// watching reports whether dst is watched on an open transport.
func (t *Transport) watching(dst id.ID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.watched[dst] && !t.closed
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
//
// The socket is shared, so the peer may have frames in flight to us, and
// closing with unread bytes would reset the connection under them. The
// flush therefore ends in a half-close: the peer reads our last frame, then
// the end of the stream, and closes its side when it is done (see serve);
// our reader keeps dispatching until then, or until drainTimeout passes.
func (t *Transport) drainLink(l *link, s *session, wb *writeBatch) {
	if !t.condemn(l) {
		return
	}
	_ = s.c.SetWriteDeadline(time.Now().Add(drainTimeout))
	flushed := true
	for {
		wb.gather(l.ch)
		if len(wb.scs) == 0 {
			break
		}
		err := t.writeOut(s.c, wb)
		wb.release()
		if err != nil {
			reclaimQueue(l)
			flushed = false
			break
		}
	}
	if flushed && closeWrite(s.c) {
		wait := time.NewTimer(drainTimeout)
		select {
		case <-s.done:
		case <-wait.C:
		}
		wait.Stop()
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
// reader has yet to observe the close. For a cache that is ending, or a
// link whose first dial is in flight, the verdict comes from a throwaway
// dial; with no cache at all Probe dials and keeps the connection.
func (t *Transport) Probe(dst id.ID) error {
	t.mu.Lock()
	l, ok := t.conns[dst]
	t.mu.Unlock()
	if !ok {
		_, err := t.conn(dst)
		return err
	}
	if s := l.current(); s != nil && connAlive(s.c) {
		return nil
	}
	// The link's first dial is in flight, or its connection is ending: the
	// peer closed it, or half-closed it to drain a demotion, and the link's
	// reader and writer act on that. Retiring the session here would race
	// the drain that flushes what the protocol sends right after this Probe
	// (the NEIGHBOR request of a repair), so Probe only reports current
	// reachability from a throwaway dial.
	cc, err := t.dial(dst)
	if err != nil {
		return err
	}
	_ = cc.Close()
	return nil
}

// Connected reports whether a live cached connection to dst currently
// exists, without dialing. A link whose first dial is in flight reports
// false, and so does a peer whose link failed: nothing redials it.
func (t *Transport) Connected(dst id.ID) bool {
	t.mu.Lock()
	l, ok := t.conns[dst]
	t.mu.Unlock()
	if !ok {
		return false
	}
	return l.current() != nil
}

// Watch marks dst so that a broken connection to it triggers onPeerDown.
// An active-view link is an open TCP connection in the paper's architecture
// (§4.1), so Watch also ensures one exists: a peer with no link gets one
// now, with no connection yet, whose writer makes one dial. Frames sent
// before the dial lands wait in the link's queue; a failed dial fires the
// watch at once, as a connection that ends later does.
func (t *Transport) Watch(dst id.ID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.watched[dst] = true
	if _, ok := t.conns[dst]; !ok {
		t.openLink(dst, nil, false)
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
// reset produces: the socket is closed proactively and the watch fires now.
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
// contact is synchronous and single-attempt, like every dial: the protocol
// probes before promoting (Probe → NEIGHBOR) and expects an unreachable
// fresh peer to surface as ErrPeerDown immediately. Only concurrent
// first contacts can race here: a watched peer always has a link. A link
// the peer opened meanwhile — its first frame reached us while we dialed —
// is not a lost race: the link writes on the peer's connection, and ours is
// closed before anything was written on it, so a simultaneous open loses no
// frame.
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
	if t.closed {
		t.mu.Unlock()
		_ = c.Close()
		return nil, ErrClosed
	}
	if l, ok := t.conns[dst]; ok {
		t.mu.Unlock()
		_ = c.Close()
		if s := l.current(); s == nil || !s.inbound {
			t.dialRacesLost.Add(1)
		}
		return l, nil
	}
	l, s := t.openLink(dst, c, false)
	t.wg.Add(1)
	t.startReader(l, s)
	t.mu.Unlock()
	return l, nil
}

// startReader spawns the reader goroutine for a session we dialed. The
// reader turns the remote's messages into deliveries and, crucially,
// detects connection breakage: that is the TCP failure detector. It
// reports the end of the stream to the session, and the link's writer
// decides what it means (see serve). The caller must have added the
// goroutine to t.wg already, from a context where the add cannot race
// Close's wait — under t.mu (conn) or from the writer (dialLink).
func (t *Transport) startReader(l *link, s *session) {
	go func() {
		defer t.wg.Done()
		_, _, err := t.readLoop(s.c, l, s)
		t.finish(l, s, err)
	}()
}
