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

// link is one peer's connection: a writer goroutine and send queue around
// exactly one TCP connection. A link is born with its connection — one we
// dialed, or one the peer dialed and we adopted on its first frame (adopt) —
// and ends with it. The TCP connection is the failure detector (§4.1): when
// a watched link's connection ends — a write error, a read error, or a clean
// end of stream from a peer we still watch — the neighbour has failed. The
// link is condemned, its queued frames go back to the pool, and the watch
// fires once; nothing is redialed. The protocol repairs its active view
// from the passive view, and a later Send to the peer opens a new link.
//
// One TCP connection serves a peer pair in both directions: replies travel
// on the socket the request came in on, so the kernel piggybacks its ACKs
// on them.
//
// The lifecycle is: active (in the connection table) → condemned (removed
// from the table, queue reclaimed, connection closed, watch fired on a
// failure). Deliberate teardown (Drain, or the peer's half-close on a link
// we do not watch) flushes the queue before it condemns, and fires nothing.
type link struct {
	dst     id.ID
	c       net.Conn
	inbound bool              // the peer dialed c and we adopted it
	ch      chan *sendScratch // owned frames; the writer returns them to the pool

	closed chan struct{} // closed by the one condemn that wins
	// drainReq asks the writer for a graceful flush-then-close teardown.
	drainReq  chan struct{}
	drainOnce sync.Once

	// condemned fences Send admissions; inflight counts senders between
	// their admission check and enqueue, so teardown can wait them out and
	// the post-condemn queue reclaim is complete (no stranded frames).
	condemned atomic.Bool
	inflight  atomic.Int64

	done chan struct{} // closed when c's reader stopped; err says why
	err  error
	// deadline is the armed write deadline (writer goroutine only).
	deadline time.Time
}

// finish is a reader's last word on l: it records why the stream ended and
// wakes the writer. A clean end of stream is the writer's to judge (see
// serve); any other error fails the link at once, which also releases a
// writer blocked on a peer that stopped reading.
func (t *Transport) finish(l *link, err error) {
	l.err = err
	close(l.done)
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

// openLink registers a new link to dst around c and starts its writer, and
// the reader of a connection we dialed; an adopted one already has its
// reader. Called under t.mu on an open transport: Close marks closed before
// waiting on the goroutine groups, so these Adds can never race a Wait that
// already saw zero.
func (t *Transport) openLink(dst id.ID, c net.Conn, inbound bool) *link {
	l := &link{
		dst:      dst,
		c:        c,
		inbound:  inbound,
		ch:       make(chan *sendScratch, sendQueue),
		closed:   make(chan struct{}),
		drainReq: make(chan struct{}),
		done:     make(chan struct{}),
	}
	t.conns[dst] = l
	t.writers.Add(1)
	t.wg.Add(1)
	go t.runLink(l)
	if !inbound {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			_, err := t.readLoop(c, l)
			t.finish(l, err)
		}()
	}
	return l
}

// adopt makes c, an accepted connection whose first frame came from sender,
// sender's link when sender has none: a link is opened around it and
// returned. When sender already has a link, that link has its own
// connection — a simultaneous open — and is returned as refused: c stays a
// read-only connection. Both are nil when the sender is nil or ourselves, or
// the transport is closed. This trusts m.Sender exactly as far as dispatch
// and the address directory do.
func (t *Transport) adopt(sender id.ID, c net.Conn) (took, refused *link) {
	if sender.IsNil() || sender == t.self {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, nil
	}
	if l, ok := t.conns[sender]; ok {
		return nil, l
	}
	return t.openLink(sender, c, true), nil
}

// runLink is the link's writer goroutine, alive for the link's whole
// lifetime: it pumps the queue into the connection until the link ends.
func (t *Transport) runLink(l *link) {
	defer t.wg.Done()
	defer t.writers.Done()
	wb := batchPool.Get().(*writeBatch)
	t.serve(l, wb)
	batchPool.Put(wb)
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
	_ = l.c.Close()
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
func (t *Transport) drainLink(l *link, wb *writeBatch) {
	if !t.condemn(l) {
		return
	}
	_ = l.c.SetWriteDeadline(time.Now().Add(drainTimeout))
	flushed := true
	for {
		wb.gather(l.ch)
		if len(wb.scs) == 0 {
			break
		}
		err := t.writeOut(l.c, wb)
		wb.release()
		if err != nil {
			reclaimQueue(l)
			flushed = false
			break
		}
	}
	if flushed && closeWrite(l.c) {
		wait := time.NewTimer(drainTimeout)
		select {
		case <-l.done:
		case <-wait.C:
		}
		wait.Stop()
	}
	_ = l.c.Close()
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
// reader has yet to observe the close. For a connection that is ending the
// verdict comes from a throwaway dial; with no link at all Probe dials and
// keeps the connection.
func (t *Transport) Probe(dst id.ID) error {
	t.mu.Lock()
	l, ok := t.conns[dst]
	t.mu.Unlock()
	if !ok {
		_, err := t.conn(dst)
		return err
	}
	if !l.condemned.Load() && connAlive(l.c) {
		return nil
	}
	// The link's connection is ending: the peer closed it, or half-closed it
	// to drain a demotion, and the link's reader and writer act on that.
	// Failing the link here would race the drain that flushes what the
	// protocol sends right after this Probe (the NEIGHBOR request of a
	// repair), so Probe only reports current reachability from a throwaway
	// dial.
	cc, err := t.dial(dst)
	if err != nil {
		return err
	}
	_ = cc.Close()
	return nil
}

// Connected reports whether a live link to dst exists, without dialing. A
// peer whose link failed reports false: nothing redials it.
func (t *Transport) Connected(dst id.ID) bool {
	t.mu.Lock()
	l, ok := t.conns[dst]
	t.mu.Unlock()
	return ok && !l.condemned.Load()
}

// Watch marks dst so that a broken connection to it triggers onPeerDown.
// An active-view link is an open TCP connection in the paper's architecture
// (§4.1), so Watch also ensures one exists: a peer with no link is dialed
// now, once and on the caller's goroutine, as a first-contact Send or Probe
// dials it. A failed dial fires the watch once, as a connection that ends
// later does, unless the peer's own connection gave it a link meanwhile.
// The watch fires on a goroutine of its own (failAsync): the caller (the
// agent) holds the lock the callback takes.
func (t *Transport) Watch(dst id.ID) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.watched[dst] = true
	t.mu.Unlock()
	if _, err := t.conn(dst); err == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.conns[dst]; ok || t.closed {
		return
	}
	t.failAsync(dst)
}

// failAsync fails dst's link, if it has one, and fires dst's watch on a
// goroutine of its own, so a caller holding the lock the watch callback
// takes returns before the callback runs. Called under t.mu on an open
// transport, as openLink is, so the Add never races Close's Wait.
func (t *Transport) failAsync(dst id.ID) {
	l := t.conns[dst]
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		if l != nil {
			t.failLink(l, true)
		} else {
			t.fireWatch(dst)
		}
	}()
}

// Unwatch cancels Watch.
func (t *Transport) Unwatch(dst id.ID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.watched, dst)
}

// Suspect condemns dst's connection on external evidence of a half-open
// link — the agent's prober observing SuspectAfter silent rounds in a row.
// TCP alone cannot tell a stalled peer from a slow one until a write times
// out; the prober can, and Suspect turns its verdict into the same signal a
// reset produces: the socket is closed proactively and the watch fires.
// Both happen on a goroutine of its own (failAsync), as a failed Watch
// dial's watch does, so the caller may hold the lock the callback takes.
func (t *Transport) Suspect(dst id.ID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.suspected.Add(1)
	t.failAsync(dst)
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

// dial runs one dial attempt to dst through the configured dialer (the dial
// half of the socket-level fault seam). Every failure, an unknown address
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
	return c, nil
}

// conn returns dst's link, dialing a first connection on demand; it is the
// one place a link's connection is dialed. First contact is synchronous and
// single-attempt, like every dial: the protocol probes before promoting
// (Probe → NEIGHBOR) and expects an unreachable fresh peer to surface as
// ErrPeerDown immediately. Only concurrent first contacts (Send, Probe,
// Watch) can race here. A link the peer opened meanwhile — its first frame
// reached us while we dialed — is not a lost race: the link writes on the
// peer's connection, and ours is closed before anything was written on it,
// so a simultaneous open loses no frame.
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
		if !l.inbound {
			t.dialRacesLost.Add(1)
		}
		return l, nil
	}
	l := t.openLink(dst, c, false)
	t.mu.Unlock()
	return l, nil
}
