package faults

import (
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"
)

// tcpPair returns a connected loopback TCP pair (client, server).
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = r.c.Close()
	})
	return client, r.c
}

func TestFailNextDialsIsDirected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = c.Close()
		}
	}()

	s := NewSockets(1)
	dial := s.Dialer(nil)
	s.FailNextDials(2)
	for i := 0; i < 2; i++ {
		if _, err := dial(ln.Addr().String(), time.Second); err == nil {
			t.Fatalf("dial %d succeeded under FailNextDials", i)
		}
	}
	c, err := dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial after the directed failures: %v", err)
	}
	defer c.Close()
	if _, ok := c.(*Conn); !ok {
		t.Error("dialer did not wrap the successful connection")
	}
	if got := s.Stats().DialsFailed; got != 2 {
		t.Errorf("DialsFailed = %d, want 2", got)
	}
}

func TestResetNextWritesClosesUnderWriter(t *testing.T) {
	client, server := tcpPair(t)
	s := NewSockets(2)
	wc := s.Wrap(client)

	s.ResetNextWrites(1)
	if _, err := wc.Write([]byte("doomed")); err == nil {
		t.Fatal("reset write reported success")
	}
	// The underlying connection is closed under the writer: the remote sees
	// the stream end.
	_ = server.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := server.Read(buf); err == nil {
		if _, err2 := server.Read(buf); err2 == nil {
			t.Error("remote still readable after an injected reset")
		}
	}
	if got := s.Stats().Resets; got != 1 {
		t.Errorf("Resets = %d, want 1", got)
	}
}

func TestPartialWriteTearsTheFrame(t *testing.T) {
	client, server := tcpPair(t)
	s := NewSockets(3)
	s.SetPlan(ConnPlan{Partial: 1})
	wc := s.Wrap(client)

	payload := make([]byte, 100)
	if _, err := wc.Write(payload); err == nil {
		t.Fatal("partial write reported success")
	}
	_ = server.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, err := io.ReadAll(server)
	if err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("reading the torn stream: %v", err)
	}
	if len(got) == 0 || len(got) >= len(payload) {
		t.Errorf("remote received %d bytes of a %d-byte torn write, want a strict prefix > 0", len(got), len(payload))
	}
	if s.Stats().Partials != 1 {
		t.Errorf("Partials = %d, want 1", s.Stats().Partials)
	}
}

func TestStallDelaysButDelivers(t *testing.T) {
	client, server := tcpPair(t)
	s := NewSockets(4)
	s.SetPlan(ConnPlan{Stall: 1, StallDelay: 60 * time.Millisecond})
	wc := s.Wrap(client)

	start := time.Now()
	if _, err := wc.Write([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("stalled write returned after %v, want >= ~60ms", elapsed)
	}
	_ = server.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(server, buf); err != nil || string(buf) != "slow" {
		t.Errorf("stalled write not delivered intact: %q, %v", buf, err)
	}
	if s.Stats().Stalls != 1 {
		t.Errorf("Stalls = %d, want 1", s.Stats().Stalls)
	}
}

func TestBlackholeSwallowsBothDirections(t *testing.T) {
	client, server := tcpPair(t)
	s := NewSockets(5)
	wc := s.Wrap(client)
	s.Blackhole(true)

	// Writes report success and vanish.
	if n, err := wc.Write([]byte("into the void")); err != nil || n != 13 {
		t.Fatalf("blackholed write: n=%d err=%v, want full success", n, err)
	}
	_ = server.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 32)
	if n, err := server.Read(buf); err == nil {
		t.Errorf("remote received %d blackholed bytes", n)
	}

	// Reads consume and discard: data sent by the remote disappears, and the
	// reader stays parked through the remote's close (silence, not EOF).
	readRet := make(chan error, 1)
	go func() {
		_, err := wc.Read(buf)
		readRet <- err
	}()
	if _, err := server.Write([]byte("gone")); err != nil {
		t.Fatal(err)
	}
	_ = server.Close()
	select {
	case err := <-readRet:
		t.Fatalf("blackholed read returned (%v) on remote data/close; want parked", err)
	case <-time.After(100 * time.Millisecond):
	}
	// A local deliberate close releases the parked read.
	_ = wc.Close()
	select {
	case err := <-readRet:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("released read: %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked read never released by Close")
	}
	if s.Stats().Blackholed == 0 {
		t.Error("Blackholed = 0 after swallowed traffic")
	}
}

func TestBlackholeOffRestoresTraffic(t *testing.T) {
	client, server := tcpPair(t)
	s := NewSockets(6)
	wc := s.Wrap(client)
	s.Blackhole(true)
	if _, err := wc.Write([]byte("void")); err != nil {
		t.Fatal(err)
	}
	s.Blackhole(false)
	if _, err := wc.Write([]byte("back")); err != nil {
		t.Fatal(err)
	}
	_ = server.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(server, buf); err != nil || string(buf) != "back" {
		t.Errorf("post-blackhole write not delivered: %q, %v", buf, err)
	}
}

func TestWrapIdempotentAndForwardsRawConn(t *testing.T) {
	client, _ := tcpPair(t)
	s := NewSockets(7)
	wc := s.Wrap(client)
	if s.Wrap(wc) != wc {
		t.Error("re-wrapping a wrapped connection built a second layer")
	}
	sc, ok := wc.(syscall.Conn)
	if !ok {
		t.Fatal("wrapped connection does not implement syscall.Conn")
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		t.Fatalf("SyscallConn: %v", err)
	}
	var fd uintptr
	if err := raw.Control(func(f uintptr) { fd = f }); err != nil {
		t.Fatalf("Control: %v", err)
	}
	if fd == 0 {
		t.Error("forwarded raw descriptor is zero")
	}
}

// TestVerdictsSeedStable pins determinism: two controllers with the same
// seed and plan produce the same dial- and write-verdict sequences.
func TestVerdictsSeedStable(t *testing.T) {
	plan := ConnPlan{DialFail: 0.3, Reset: 0.2, Partial: 0.2, Stall: 0.2}
	run := func() ([]bool, []writeFault) {
		s := NewSockets(42)
		s.SetPlan(plan)
		dials := make([]bool, 64)
		writes := make([]writeFault, 64)
		for i := range dials {
			_, dials[i] = s.dialVerdict()
		}
		for i := range writes {
			writes[i] = s.writeVerdict()
		}
		return dials, writes
	}
	d1, w1 := run()
	d2, w2 := run()
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("dial verdict %d diverged across same-seed controllers", i)
		}
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("write verdict %d diverged across same-seed controllers", i)
		}
	}
}

// TestConcurrentVerdictsSafe exercises the controller's mutex under -race:
// many connections drawing verdicts and flipping the blackhole concurrently.
func TestConcurrentVerdictsSafe(t *testing.T) {
	s := NewSockets(8)
	s.SetPlan(ConnPlan{Reset: 0.1, Partial: 0.1, Stall: 0.1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch g % 4 {
				case 0:
					s.writeVerdict()
				case 1:
					s.dialVerdict()
				case 2:
					s.Blackhole(i%2 == 0)
				case 3:
					_ = s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	s.Blackhole(false)
}
