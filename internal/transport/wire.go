package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
)

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
// rule fmt follows for its pooled buffers, at the same size). A read buffer
// is reused only once the frame it lent to dispatch has been handled.
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
// fails the link: the frames still queued are dropped and a watched peer's
// watch fires (see serve).
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

func (wb *writeBatch) push(sc *sendScratch) {
	wb.scs = append(wb.scs, sc)
	wb.bufs = append(wb.bufs, sc.frame)
}

// gather tops the batch up from ch, up to maxWriteBatch frames, without
// blocking.
func (wb *writeBatch) gather(ch chan *sendScratch) {
	for len(wb.scs) < maxWriteBatch {
		select {
		case sc := <-ch:
			wb.push(sc)
		default:
			return
		}
	}
}

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

// serve pumps queued frames into the link's connection — gathering up to
// maxWriteBatch frames per wakeup into one vectored write, so
// frames-per-syscall rises with pressure and latency stays flat — until the
// connection ends, a drain is requested (serve runs the drain), or the link
// stops. A write failure fails the link: the gathered batch is forfeit (the
// kernel may have taken any prefix of it, the same uncertainty a failed
// single write has), the frames still queued go back to the pool, and the
// watch fires. When the connection's reader stops at a clean end of stream,
// serve judges it: from a peer we do not watch it is that peer draining the
// shared socket — its demotion of us, or its Close — so we drain too,
// flushing what is queued into the half-open socket the peer still reads;
// from a watched peer it is a failed neighbour.
func (t *Transport) serve(l *link, wb *writeBatch) {
	for {
		select {
		case sc := <-l.ch:
			wb.push(sc)
			wb.gather(l.ch)
			err := t.flushConn(l, wb)
			wb.release()
			if err != nil {
				t.failLink(l, true)
				return
			}
		case <-l.done:
			if l.err == io.EOF && !t.watching(l.dst) {
				t.drainLink(l, wb)
			} else {
				t.failLink(l, true)
			}
			return
		case <-l.drainReq:
			t.drainLink(l, wb)
			return
		case <-l.closed:
			return
		}
	}
}

// flushConn writes the gathered frames with the coalesced write deadline:
// re-armed only once the armed deadline has decayed by more than a slack
// threshold, because a frame is late only once the whole writeTimeout
// passed, so re-arming within the slack window buys nothing.
func (t *Transport) flushConn(l *link, wb *writeBatch) error {
	now := time.Now()
	if l.deadline.Sub(now) < writeTimeout-writeTimeout/4 {
		l.deadline = now.Add(writeTimeout)
		if err := l.c.SetWriteDeadline(l.deadline); err != nil {
			return err
		}
	}
	return t.writeOut(l.c, wb)
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
// of one. The frame buffer and the decoded message are reused across
// frames, one each per connection, so a frame costs no allocation for
// either (frames beyond maxKeptBuffer get a buffer each), and the
// decode-bounds guarantees (maxFrame here, list/payload caps in the codec)
// are unchanged.
//
// Each frame is handed to onMessage before the next one is read, so a
// consumer that handles frames on the spot sees a peer's last frame before
// the end of its stream. The payload is lent: msg.Decode leaves it in the
// frame buffer, which the next frame overwrites, so it is valid until
// onMessage (and Config.Intercept before it) returns, and what outlives the
// call is copied out (see package peer, "Message ownership"). The reader of a dialed connection serves its link
// l. The reader of an accepted connection (l nil) offers it to the first
// frame's sender as its link (see adopt), and offers it again on that
// sender's later frames once the link that refused it is gone, so a sender
// that keeps writing to us is not left without a link to be answered on (a
// PING, say). readLoop returns the link whose connection c is, if any, and
// why the stream ended: io.EOF for a stream that ended cleanly at a frame
// boundary.
//
// Once the transport is closing nothing more is dispatched, but a link's
// reader reads on until the peer answers the drain's half-close, or the
// drain gives up and closes the socket: a socket closed with unread bytes
// resets, and the reset can discard frames the drain already flushed.
func (t *Transport) readLoop(c net.Conn, l *link) (*link, error) {
	cr := countingReader{c: c, n: &t.readSyscalls}
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(&cr)
	defer func() {
		br.Reset(nopReader{})
		readerPool.Put(br)
	}()
	var lenBuf [lenHeaderSize]byte
	var buf []byte
	var m msg.Message     // Intercept takes its address: one per connection, not per frame
	adoptable := l == nil // an accepted connection, offered to its sender
	var owner id.ID       // the sender of its first frame
	var refused *link     // owner's link, which left it read-only
	for {
		m.Payload = nil // lent by the last frame: an idle connection pins no outsize buffer
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return l, err
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxFrame {
			return l, errFrameSize
		}
		if uint32(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // torn after its header
			}
			return l, err
		}
		var err error
		if m, _, err = msg.Decode(buf); err != nil {
			return l, err // corrupt peer; drop the connection
		}
		if cap(buf) > maxKeptBuffer {
			buf = nil // not reused: the frame keeps it until its dispatch ends
		}
		if t.closedFlag.Load() {
			if l == nil {
				return nil, ErrClosed
			}
			continue
		}
		// Absorb the address side table before dispatching so the protocol
		// can immediately act on any identifier the message mentions.
		for _, d := range m.Directory {
			if d.Node != t.self && d.Addr != "" {
				t.book.Put(d.Node, d.Addr)
			}
		}
		if adoptable && (refused == nil || refused.condemned.Load() && m.Sender == owner) {
			owner = m.Sender
			l, refused = t.adopt(owner, c)
			adoptable = refused != nil // offered again once refused ends
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

// errFrameSize ends a stream whose length prefix is zero or over maxFrame.
var errFrameSize = errors.New("transport: frame length out of bounds")

// serveInbound registers c, an accepted connection, and starts its reader,
// which may adopt c as its first sender's link.
// Called under t.mu on an open transport, so the Add cannot race Close's
// wait.
func (t *Transport) serveInbound(c net.Conn) {
	t.inbound[c] = struct{}{}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		l, err := t.readLoop(c, nil)
		t.mu.Lock()
		delete(t.inbound, c)
		t.mu.Unlock()
		if l != nil {
			t.finish(l, err) // the link owns c now
			return
		}
		_ = c.Close()
	}()
}

// closeWrite half-closes c: the peer reads the end of the stream after our
// last frame, and c stays open for reading. It reports false for a
// connection that cannot half-close.
func closeWrite(c net.Conn) bool {
	cw, ok := c.(interface{ CloseWrite() error })
	return ok && cw.CloseWrite() == nil
}
