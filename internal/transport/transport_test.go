package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"hyparview/internal/core"
	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
)

// collector accumulates deliveries thread-safely.
type collector struct {
	mu    sync.Mutex
	msgs  []msg.Message
	froms []id.ID
	downs []id.ID
}

// onMessage keeps a deep copy of m: a received payload is lent from the
// connection's read buffer only until the callback returns.
func (c *collector) onMessage(from id.ID, m msg.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m.Clone())
	c.froms = append(c.froms, from)
}

func (c *collector) onDown(p id.ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.downs = append(c.downs, p)
}

func (c *collector) waitMsgs(t *testing.T, n int) []msg.Message {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		c.mu.Lock()
		if len(c.msgs) >= n {
			out := append([]msg.Message(nil), c.msgs...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d messages", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *collector) waitDowns(t *testing.T, n int) []id.ID {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		c.mu.Lock()
		if len(c.downs) >= n {
			out := append([]id.ID(nil), c.downs...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d downs", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func listen(t *testing.T, c *collector) *Transport {
	t.Helper()
	tr, err := Listen("127.0.0.1:0", Config{}, c.onMessage, c.onDown)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

func TestSendDeliversMessage(t *testing.T) {
	var ca, cb collector
	a := listen(t, &ca)
	b := listen(t, &cb)
	bID := a.Register(b.Addr())

	want := msg.Message{Type: msg.Gossip, Sender: a.Self(), Round: 42, Payload: []byte("hi")}
	if err := a.Send(bID, want); err != nil {
		t.Fatal(err)
	}
	got := cb.waitMsgs(t, 1)[0]
	if got.Round != 42 || string(got.Payload) != "hi" || got.Sender != a.Self() {
		t.Errorf("got %+v", got)
	}
}

func TestSelfIDDerivedFromAddr(t *testing.T) {
	var c collector
	tr := listen(t, &c)
	if tr.Self() != id.FromAddr(tr.Addr()) {
		t.Error("Self() does not match FromAddr(Addr())")
	}
	if addr, ok := tr.Book().Addr(tr.Self()); !ok || addr != tr.Addr() {
		t.Error("own address not in book")
	}
}

func TestSendToUnknownIDFails(t *testing.T) {
	var c collector
	a := listen(t, &c)
	err := a.Send(id.ID(424242), msg.Message{Type: msg.Gossip, Sender: a.Self()})
	if !errors.Is(err, peer.ErrPeerDown) {
		t.Errorf("err = %v, want ErrPeerDown", err)
	}
}

func TestSendToDeadAddrFails(t *testing.T) {
	var c collector
	a := listen(t, &c)
	// Reserve a port, then close it so nothing listens there.
	var cb collector
	b := listen(t, &cb)
	addr := b.Addr()
	_ = b.Close()
	dead := a.Register(addr)
	err := a.Send(dead, msg.Message{Type: msg.Gossip, Sender: a.Self()})
	if !errors.Is(err, peer.ErrPeerDown) {
		t.Errorf("err = %v, want ErrPeerDown", err)
	}
}

func TestProbeSemantics(t *testing.T) {
	var ca, cb collector
	a := listen(t, &ca)
	b := listen(t, &cb)
	bID := a.Register(b.Addr())
	if err := a.Probe(bID); err != nil {
		t.Errorf("probe of live peer failed: %v", err)
	}
	_ = b.Close()
	// The cached connection is now dead. Probe used to answer from the cache
	// without checking it — a false "reachable" until the reader noticed the
	// close; now the peek check (or the failed link plus a failed dial) must
	// surface ErrPeerDown.
	deadline := time.Now().Add(3 * time.Second)
	for {
		err := a.Probe(bID)
		if errors.Is(err, peer.ErrPeerDown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe of dead cached peer never failed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestWatchFiresOnPeerDeath(t *testing.T) {
	var ca, cb collector
	a := listen(t, &ca)
	b := listen(t, &cb)
	bID := a.Register(b.Addr())
	if err := a.Probe(bID); err != nil { // establish the watched connection
		t.Fatal(err)
	}
	a.Watch(bID)
	_ = b.Close()
	downs := ca.waitDowns(t, 1)
	if downs[0] != bID {
		t.Errorf("down = %v, want %v", downs[0], bID)
	}
}

func TestUnwatchSuppressesNotification(t *testing.T) {
	var ca, cb collector
	a := listen(t, &ca)
	b := listen(t, &cb)
	bID := a.Register(b.Addr())
	if err := a.Probe(bID); err != nil {
		t.Fatal(err)
	}
	a.Watch(bID)
	a.Unwatch(bID)
	_ = b.Close()
	time.Sleep(150 * time.Millisecond)
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if len(ca.downs) != 0 {
		t.Errorf("downs = %v, want none after Unwatch", ca.downs)
	}
}

func TestDirectoryTeachesAddresses(t *testing.T) {
	// a knows b and c; b learns c's address from a message's directory and
	// can then send to c directly.
	var ca, cb, cc collector
	a := listen(t, &ca)
	b := listen(t, &cb)
	c := listen(t, &cc)
	bID := a.Register(b.Addr())
	cID := a.Register(c.Addr())

	if err := a.Send(bID, msg.Message{
		Type: msg.ForwardJoin, Sender: a.Self(), Subject: cID, TTL: 3,
	}); err != nil {
		t.Fatal(err)
	}
	cb.waitMsgs(t, 1)
	if err := b.Send(cID, msg.Message{Type: msg.Gossip, Sender: b.Self(), Round: 1}); err != nil {
		t.Fatalf("b could not reach c after learning via directory: %v", err)
	}
	cc.waitMsgs(t, 1)
}

func TestLargeMessageRoundTrip(t *testing.T) {
	var ca, cb collector
	a := listen(t, &ca)
	b := listen(t, &cb)
	bID := a.Register(b.Addr())
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := a.Send(bID, msg.Message{Type: msg.Gossip, Sender: a.Self(), Payload: payload}); err != nil {
		t.Fatal(err)
	}
	got := cb.waitMsgs(t, 1)[0]
	if len(got.Payload) != len(payload) || got.Payload[12345] != payload[12345] {
		t.Error("large payload corrupted")
	}
}

func TestConcurrentSendsSafe(t *testing.T) {
	var ca, cb collector
	a := listen(t, &ca)
	b := listen(t, &cb)
	bID := a.Register(b.Addr())
	var wg sync.WaitGroup
	const senders, each = 8, 50
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// A full send queue sheds with ErrOverflow by design; the
				// lossless delivery this test asserts requires retrying.
				for {
					err := a.Send(bID, msg.Message{
						Type: msg.Gossip, Sender: a.Self(), Round: uint64(g*each + i),
					})
					if !errors.Is(err, peer.ErrOverflow) {
						break
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(g)
	}
	wg.Wait()
	msgs := cb.waitMsgs(t, senders*each)
	seen := make(map[uint64]bool, len(msgs))
	for _, m := range msgs {
		if seen[m.Round] {
			t.Fatalf("duplicate or corrupted frame for round %d", m.Round)
		}
		seen[m.Round] = true
	}
}

func TestCloseIdempotent(t *testing.T) {
	var c collector
	tr := listen(t, &c)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := tr.Send(id.ID(1), msg.Message{Type: msg.Gossip}); !errors.Is(err, ErrClosed) && !errors.Is(err, peer.ErrPeerDown) {
		t.Errorf("send after close: %v", err)
	}
}

func TestAgentViewsAndStats(t *testing.T) {
	a, err := NewAgent("127.0.0.1:0", AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewAgent("127.0.0.1:0", AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		av, bv := a.ActiveView(), b.ActiveView()
		if len(av) == 1 && av[0] == b.Self() && len(bv) == 1 && bv[0] == a.Self() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("views never became symmetric: a=%v b=%v", av, bv)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := a.Stats(); st.JoinsHandled != 1 {
		t.Errorf("contact stats = %+v, want JoinsHandled=1", st)
	}
}

func TestAgentManualCycle(t *testing.T) {
	a, err := NewAgent("127.0.0.1:0", AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Cycle(); err != nil {
		t.Errorf("manual cycle: %v", err)
	}
}

func TestAgentFailureRepairsOverTCP(t *testing.T) {
	// 4 agents; one dies; the survivors must purge it from their active
	// views via the watch mechanism and stay mutually broadcastable.
	mk := func(c *collector) *Agent {
		a, err := NewAgent("127.0.0.1:0", AgentConfig{
			CyclePeriod: 50 * time.Millisecond,
			OnDeliver:   func(p []byte) { c.onMessage(id.Nil, msg.Message{Payload: p}) }, // onMessage copies p
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	cols := make([]*collector, 4)
	agents := make([]*Agent, 4)
	for i := range agents {
		cols[i] = &collector{}
		agents[i] = mk(cols[i])
	}
	defer func() {
		for _, a := range agents {
			_ = a.Close()
		}
	}()
	for i := 1; i < 4; i++ {
		if err := agents[i].Join(agents[0].Addr()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond)

	victim := agents[3].Self()
	_ = agents[3].Close()

	// Survivors must eventually drop the victim from their active views.
	deadline := time.Now().Add(5 * time.Second)
	for {
		clean := true
		for i := 0; i < 3; i++ {
			for _, n := range agents[i].ActiveView() {
				if n == victim {
					clean = false
				}
			}
		}
		if clean {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never purged from survivors' active views")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := agents[1].Broadcast([]byte("post-failure")); err != nil {
		t.Fatal(err)
	}
	cols[0].waitMsgs(t, 1)
	cols[2].waitMsgs(t, 1)
}

func TestAgentNeighborEvents(t *testing.T) {
	type event struct {
		up   bool
		peer id.ID
	}
	var mu sync.Mutex
	var events []event
	a, err := NewAgent("127.0.0.1:0", AgentConfig{
		OnNeighborUp: func(p id.ID) {
			mu.Lock()
			events = append(events, event{up: true, peer: p})
			mu.Unlock()
		},
		OnNeighborDown: func(p id.ID, _ core.DownReason) {
			mu.Lock()
			events = append(events, event{up: false, peer: p})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewAgent("127.0.0.1:0", AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	bID := b.Self()

	waitEvent := func(wantUp bool) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for {
			mu.Lock()
			for _, e := range events {
				if e.up == wantUp && e.peer == bID {
					mu.Unlock()
					return
				}
			}
			mu.Unlock()
			if time.Now().After(deadline) {
				t.Fatalf("no %v event for %v", wantUp, bID)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitEvent(true)
	_ = b.Close()
	waitEvent(false)
}

func TestCorruptFrameDropsConnectionOnly(t *testing.T) {
	// A peer sending garbage must get its connection dropped without
	// killing the transport; healthy peers keep working.
	var ca collector
	a := listen(t, &ca)

	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Valid length prefix, garbage body.
	frame := []byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The transport must close the corrupt connection.
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("corrupt connection not closed")
	}
	_ = conn.Close()

	// A healthy peer still gets through.
	var cb collector
	b := listen(t, &cb)
	aID := b.Register(a.Addr())
	if err := b.Send(aID, msg.Message{Type: msg.Gossip, Sender: b.Self(), Round: 5}); err != nil {
		t.Fatal(err)
	}
	got := ca.waitMsgs(t, 1)
	if got[0].Round != 5 {
		t.Errorf("round = %d", got[0].Round)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var ca collector
	a := listen(t, &ca)
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Length field beyond maxFrame.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("oversized frame did not close the connection")
	}
}
