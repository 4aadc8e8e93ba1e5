package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
)

// The batched data plane's contracts: a mid-batch write failure drops the
// connection exactly once and returns every queued frame to the pool; the
// vectored write preserves frame order and boundaries; buffered reads
// coalesce kernel reads without changing decode semantics; and the batch
// drain stays safe under concurrent Send / connection drop / Close.

// rawSink accepts one connection and holds it unread until released, so a
// sender's kernel buffer fills, its writer goroutine blocks mid-flush, and
// its bounded send queue backs up — the deterministic way to force frames to
// queue behind an in-flight batch.
type rawSink struct {
	ln    net.Listener
	conns chan net.Conn
}

func newRawSink(t *testing.T) *rawSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &rawSink{ln: ln, conns: make(chan net.Conn, 1)}
	// The cleanup holds s, which keeps the accepted conn reachable for the
	// whole test: without that, a test that never touches the sink again
	// would let the GC finalize the conn's fd mid-test and RST the sender.
	t.Cleanup(func() {
		_ = ln.Close()
		select {
		case c := <-s.conns:
			_ = c.Close()
		default:
		}
	})
	go func() {
		c, err := ln.Accept()
		if err == nil {
			s.conns <- c
		}
	}()
	return s
}

// conn returns the accepted connection, waiting for the dial to land.
func (s *rawSink) conn(t *testing.T) net.Conn {
	t.Helper()
	select {
	case c := <-s.conns:
		s.conns <- c
		return c
	case <-time.After(3 * time.Second):
		t.Fatal("sink never accepted a connection")
		return nil
	}
}

// fillQueue sends frames at dst until one sheds with ErrOverflow: at that
// point the writer goroutine is blocked in a write and the send queue holds
// sendQueue frames. Returns the number of frames accepted into the queue or
// the kernel.
func fillQueue(t *testing.T, tr *Transport, dst id.ID, payload []byte) int {
	t.Helper()
	accepted := 0
	for i := 0; i < 1<<16; i++ {
		err := tr.Send(dst, msg.Message{Type: msg.Gossip, Sender: tr.Self(), Round: uint64(i), Payload: payload})
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, peer.ErrOverflow):
			return accepted
		default:
			t.Fatalf("send %d: %v", i, err)
		}
	}
	t.Fatal("queue never overflowed against a non-reading peer")
	return 0
}

// TestWriteFailureMidBatchDrainsQueue pins the failure-drain contract under
// batching: when a write fails with a batch gathered and more frames still
// queued on an unwatched link, the link tears down quietly — every frame,
// the in-flight batch and the queued remainder, goes back to the pool
// without leaking, the cache entry is retired, and no watch notification
// fires (nobody asked for one; a watched link's failure fires its watch,
// pinned in lifecycle_test.go).
func TestWriteFailureMidBatchDrainsQueue(t *testing.T) {
	sink := newRawSink(t)
	var ca collector
	a := listen(t, &ca)
	dst := a.Register(sink.ln.Addr().String())

	balanceBefore := scratchBalance.Load()
	if err := a.Probe(dst); err != nil {
		t.Fatal(err)
	}
	// Block the writer mid-flush and back the queue up behind it.
	fillQueue(t, a, dst, make([]byte, 32<<10))

	// Hard-close the sink with a RST so the blocked write errors instead of
	// draining: a mid-batch failure with a full queue behind it.
	c := sink.conn(t)
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Close()

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if scratchBalance.Load() == balanceBefore && !a.Connected(dst) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := scratchBalance.Load(); got != balanceBefore {
		t.Errorf("scratch balance %d after drain, want %d: frames leaked from the failure path", got, balanceBefore)
	}
	if a.Connected(dst) {
		t.Error("connection still cached after mid-batch failure")
	}
	ca.mu.Lock()
	nDowns := len(ca.downs)
	ca.mu.Unlock()
	if nDowns != 0 {
		t.Errorf("watch fired %d times on an unwatched link, want 0", nDowns)
	}
}

// TestBatchedWritesEngageAndPreserveFrames forces a real batch: the writer
// blocks against an unread socket while small frames queue behind it, then
// the sink drains everything. Every accepted frame must arrive intact and in
// order through the vectored write path, and the stats must show the batch
// (WriteCalls < FramesSent, BatchedWrites > 0, FramesPerWrite > 1).
func TestBatchedWritesEngageAndPreserveFrames(t *testing.T) {
	sink := newRawSink(t)
	var ca collector
	a := listen(t, &ca)
	dst := a.Register(sink.ln.Addr().String())
	if err := a.Probe(dst); err != nil {
		t.Fatal(err)
	}

	// Big frames block the writer and fill the kernel buffer; the queue
	// then holds sendQueue more (these will flush in batches once the sink
	// reads). Count every frame the transport accepted.
	accepted := fillQueue(t, a, dst, make([]byte, 16<<10))

	// Drain the sink: read and decode every frame, checking order.
	c := sink.conn(t)
	var next uint64
	rd := func() error {
		var hdr [lenHeaderSize]byte
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return err
		}
		n := binary.BigEndian.Uint32(hdr[:])
		buf := make([]byte, n)
		if _, err := io.ReadFull(c, buf); err != nil {
			return err
		}
		m, _, err := msg.Decode(buf)
		if err != nil {
			return err
		}
		if m.Round != next {
			t.Fatalf("frame %d arrived out of order (round %d)", next, m.Round)
		}
		next++
		return nil
	}
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	for int(next) < accepted {
		if err := rd(); err != nil {
			t.Fatalf("after %d/%d frames: %v", next, accepted, err)
		}
	}

	st := a.Stats()
	if st.FramesSent != uint64(accepted) {
		t.Errorf("FramesSent = %d, want %d", st.FramesSent, accepted)
	}
	if st.WriteCalls >= st.FramesSent {
		t.Errorf("WriteCalls = %d not below FramesSent = %d: batching never engaged", st.WriteCalls, st.FramesSent)
	}
	if st.BatchedWrites == 0 {
		t.Error("BatchedWrites = 0 with a backed-up queue")
	}
	if fpw := st.FramesPerWrite(); fpw <= 1 {
		t.Errorf("FramesPerWrite = %.2f, want > 1", fpw)
	}
}

// TestBufferedReadCoalescesSyscalls sends a burst of frames in one socket
// write; the receiving transport must decode and deliver all of them while
// touching the kernel far fewer than the two-reads-per-frame the unbuffered
// loop cost.
func TestBufferedReadCoalescesSyscalls(t *testing.T) {
	var ca collector
	a := listen(t, &ca)

	const frames = 64
	var burst []byte
	for i := 0; i < frames; i++ {
		body := msg.Encode(msg.Message{Type: msg.Gossip, Sender: id.ID(7), Round: uint64(i), Payload: []byte("x")})
		var hdr [lenHeaderSize]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		burst = append(burst, hdr[:]...)
		burst = append(burst, body...)
	}
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	before := a.Stats().ReadSyscalls
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	got := ca.waitMsgs(t, frames)
	for i, m := range got {
		if m.Round != uint64(i) {
			t.Fatalf("frame %d delivered round %d", i, m.Round)
		}
	}
	reads := a.Stats().ReadSyscalls - before
	if reads >= frames {
		t.Errorf("%d kernel reads for %d coalesced frames: read buffering not engaged", reads, frames)
	}
}

// TestConcurrentSendDropCloseRace exercises the batch drain's ownership
// hand-offs under -race: several goroutines hammer Send while the remote
// dies mid-stream and the transport finally closes. Every outcome is legal
// per frame (sent, shed, peer-down) — what must hold is no deadlock, no
// double-put, and a clean scratch balance once everything unwinds.
func TestConcurrentSendDropCloseRace(t *testing.T) {
	balanceBefore := scratchBalance.Load()
	for round := 0; round < 3; round++ {
		var ca, cb collector
		a := listen(t, &ca)
		b := listen(t, &cb)
		dst := a.Register(b.Addr())

		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				payload := make([]byte, 512)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					err := a.Send(dst, msg.Message{
						Type: msg.Gossip, Sender: a.Self(), Round: uint64(g)<<32 | uint64(i), Payload: payload,
					})
					if errors.Is(err, ErrClosed) {
						return
					}
				}
			}(g)
		}
		time.Sleep(20 * time.Millisecond)
		_ = b.Close() // remote dies mid-stream: writers hit the failure drain
		time.Sleep(20 * time.Millisecond)
		_ = a.Close() // then the whole transport closes under fire
		close(stop)
		wg.Wait()
	}
	deadline := time.Now().Add(2 * time.Second)
	for scratchBalance.Load() != balanceBefore && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := scratchBalance.Load(); got != balanceBefore {
		t.Errorf("scratch balance %d after close, want %d", got, balanceBefore)
	}
}

// TestOverflowShedUnchangedUnderBatching pins that batching did not move the
// overflow-shed semantics: against a non-reading peer the queue still fills,
// Send still sheds with peer.ErrOverflow, and the sheds are still counted —
// then a drained queue accepts sends again on a fresh connection.
func TestOverflowShedUnchangedUnderBatching(t *testing.T) {
	sink := newRawSink(t)
	var ca collector
	a := listen(t, &ca)
	dst := a.Register(sink.ln.Addr().String())

	fillQueue(t, a, dst, make([]byte, 64<<10))
	if got := a.Stats().Overflowed; got == 0 {
		t.Error("Stats.Overflowed = 0 after a shed Send")
	}
	err := a.Send(dst, msg.Message{Type: msg.Gossip, Sender: a.Self(), Round: 1})
	if !errors.Is(err, peer.ErrOverflow) {
		t.Errorf("send against full queue: %v, want ErrOverflow", err)
	}
}
