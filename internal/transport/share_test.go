package transport

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyparview/internal/id"
	"hyparview/internal/msg"
)

// One TCP connection per peer pair, used in both directions: a link adopts
// the connection its peer dialed (on that connection's first frame), replies
// ride it, a demotion drains it with a half-close that the peer answers by
// draining too, and a simultaneous open loses and reorders nothing.

// countingDialer is a Config.Dial that counts its dials.
func countingDialer(n *atomic.Int64) func(string, time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		n.Add(1)
		return net.DialTimeout("tcp", addr, timeout)
	}
}

// waitUntil polls cond, an observable event, until it holds or 3 s pass.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	waitStat(t, func() uint64 {
		if cond() {
			return 1
		}
		return 0
	}, 1, what)
}

// inOrder fails unless ms are exactly the rounds 0..n-1 from sender, in
// order.
func inOrder(t *testing.T, side string, ms []msg.Message, sender id.ID, n int) {
	t.Helper()
	if len(ms) != n {
		t.Fatalf("%s: %d frames, want %d: rounds %v", side, len(ms), n, rounds(ms))
	}
	for i, m := range ms {
		if m.Round != uint64(i) || m.Sender != sender {
			t.Fatalf("%s: frame %d is round %d from %v, want round %d from %v: rounds %v",
				side, i, m.Round, m.Sender, i, sender, rounds(ms))
		}
	}
}

// TestReplyRidesTheSendersConnection: after A sends to B, B's replies travel
// on the connection A dialed — B dials nothing — and frames arrive in order
// both ways.
func TestReplyRidesTheSendersConnection(t *testing.T) {
	var bDials atomic.Int64
	var ca, cb collector
	a := listen(t, &ca)
	b := listenWith(t, Config{Dial: countingDialer(&bDials)}, &cb)
	bID := a.Register(b.Addr())

	const n = 20
	for i := 0; i < n; i++ {
		if err := a.Send(bID, msg.Message{Type: msg.Gossip, Sender: a.Self(), Round: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	inOrder(t, "A→B", cb.waitMsgs(t, n), a.Self(), n)
	for i := 0; i < n; i++ {
		if err := b.Send(a.Self(), msg.Message{Type: msg.Gossip, Sender: b.Self(), Round: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	inOrder(t, "B→A", ca.waitMsgs(t, n), b.Self(), n)
	if d := bDials.Load(); d != 0 {
		t.Errorf("B dialed %d times to reply, want 0: the reply must ride A's connection", d)
	}
}

// TestDisconnectDrainOverSharedConnection: A demotes B fifty times over the
// one connection they share — DISCONNECT, then Drain, as a demoting agent
// does — while B handles a DISCONNECT the way an agent's core does, by
// unwatching A before its reader reads on, then draining. B must not take
// A's half-close for a failure: no watch fires at B (an agent would report
// DownFailed), B never dials, and the frame B sent just before A's drain is
// still delivered to A.
func TestDisconnectDrainOverSharedConnection(t *testing.T) {
	const rounds = 50
	var bDials atomic.Int64
	var ca, cb collector
	a := listen(t, &ca)
	var bp atomic.Pointer[Transport]
	cfg := Config{Dial: countingDialer(&bDials)}
	b, err := Listen("127.0.0.1:0", cfg, func(from id.ID, m msg.Message) {
		cb.onMessage(from, m)
		switch m.Type {
		case msg.Join:
			bp.Load().Watch(from)
		case msg.Disconnect:
			bp.Load().Unwatch(from)
			bp.Load().Drain(from)
		}
	}, cb.onDown)
	if err != nil {
		t.Fatal(err)
	}
	bp.Store(b)
	t.Cleanup(func() { _ = b.Close() })
	bID := a.Register(b.Addr())
	joins := func() (n uint64) {
		cb.mu.Lock()
		defer cb.mu.Unlock()
		for _, m := range cb.msgs {
			if m.Type == msg.Join {
				n++
			}
		}
		return n
	}

	for i := 0; i < rounds; i++ {
		if err := a.Send(bID, msg.Message{Type: msg.Join, Sender: a.Self()}); err != nil {
			t.Fatal(err)
		}
		a.Watch(bID)
		waitStat(t, joins, uint64(i+1), "JOINs at B")
		if !b.Connected(a.Self()) {
			t.Fatalf("round %d: B holds no link on A's connection", i)
		}
		if err := b.Send(a.Self(), msg.Message{Type: msg.Gossip, Sender: b.Self(), Round: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		a.Unwatch(bID)
		if err := a.Send(bID, msg.Message{Type: msg.Disconnect, Sender: a.Self()}); err != nil {
			t.Fatal(err)
		}
		a.Drain(bID)

		ca.waitMsgs(t, i+1)
		waitStat(t, func() uint64 { return a.Stats().Drained }, uint64(i+1), "Drained at A")
		waitStat(t, func() uint64 { return b.Stats().Drained }, uint64(i+1), "Drained at B")
		waitUntil(t, "both links gone", func() bool { return !a.Connected(bID) && !b.Connected(a.Self()) })
	}
	got := ca.waitMsgs(t, rounds)
	inOrder(t, "B→A", got, b.Self(), rounds)
	cb.mu.Lock()
	downs := len(cb.downs)
	cb.mu.Unlock()
	if downs != 0 {
		t.Errorf("B's watch fired %d times on deliberate demotions, want 0", downs)
	}
	if d := bDials.Load(); d != 0 {
		t.Errorf("B dialed %d times, want 0: every exchange rides A's connection", d)
	}
}

// TestSimultaneousOpenLosesNothing: A and B dial each other at once,
// repeatedly. In the held variant B's dial is held open until B has adopted
// A's connection, so the dial lands on a link that already has one: it is
// closed unwritten, not counted as a lost race, and B keeps writing on the
// adopted connection. In the free variant both first contacts race as they
// come.
// Either way every frame arrives exactly once and in per-sender order, no
// dial race is lost, and the frame pool balances.
func TestSimultaneousOpenLosesNothing(t *testing.T) {
	const pairs, n = 20, 16
	balanceBefore := scratchBalance.Load()
	for _, held := range []bool{true, false} {
		for p := 0; p < pairs; p++ {
			simultaneousOpen(t, held, n)
		}
	}
	waitUntil(t, "frame pool balanced", func() bool { return scratchBalance.Load() == balanceBefore })
}

// TestReadOnlyConnectionAdoptedOnceItsLinkEnds: A and B each dial the other
// before either sends, so each link writes on its own connection and reads
// the peer's as read-only. B then drains its link to A, while A keeps
// writing to B on the connection A dialed. A's next frame there makes that
// connection B's link, so B answers on it — a PING included — without a
// dial.
func TestReadOnlyConnectionAdoptedOnceItsLinkEnds(t *testing.T) {
	var bDials atomic.Int64
	var ca, cb collector
	a := listen(t, &ca)
	b := listenWith(t, Config{Dial: countingDialer(&bDials)}, &cb)
	aID, bID := b.Register(a.Addr()), a.Register(b.Addr())
	if err := b.Probe(aID); err != nil {
		t.Fatal(err)
	}
	if err := a.Probe(bID); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(bID, msg.Message{Type: msg.Gossip, Sender: a.Self(), Round: 0}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(aID, msg.Message{Type: msg.Gossip, Sender: b.Self(), Round: 0}); err != nil {
		t.Fatal(err)
	}
	cb.waitMsgs(t, 1)
	ca.waitMsgs(t, 1)

	b.Drain(aID)
	waitUntil(t, "B's link to A drained", func() bool { return b.Stats().Drained == 1 && !b.Connected(aID) })
	if err := a.Send(bID, msg.Message{Type: msg.Ping, Sender: a.Self(), Round: 1}); err != nil {
		t.Fatal(err)
	}
	cb.waitMsgs(t, 2)
	waitUntil(t, "B adopted A's connection", func() bool { return b.Connected(aID) })
	if err := b.Send(aID, msg.Message{Type: msg.Pong, Sender: b.Self(), Round: 1}); err != nil {
		t.Fatal(err)
	}
	inOrder(t, "B→A", ca.waitMsgs(t, 2), b.Self(), 2)
	if d := bDials.Load(); d != 1 {
		t.Errorf("B dialed %d times, want 1 (its Probe): the reply must ride A's connection", d)
	}
}

// TestCloseFlushesWhileThePeerSends: A closes while B floods the connection
// they share, ten times over. Every frame A queued before Close reaches B in
// order: A's reader keeps reading B's frames after Close began, dispatching
// none, until B answers the drain's half-close, so the drain neither breaks
// the socket mid-flush nor resets it under frames it already flushed.
func TestCloseFlushesWhileThePeerSends(t *testing.T) {
	for i := 0; i < 10; i++ {
		closeUnderFlood(t)
	}
}

func closeUnderFlood(t *testing.T) {
	t.Helper()
	var flooded atomic.Int64
	a, err := Listen("127.0.0.1:0", Config{}, func(id.ID, msg.Message) { flooded.Add(1) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var cb collector
	b := listen(t, &cb)
	defer b.Close()
	bID := a.Register(b.Addr())
	if err := a.Send(bID, msg.Message{Type: msg.Gossip, Sender: a.Self()}); err != nil {
		t.Fatal(err)
	}
	cb.waitMsgs(t, 1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = b.Send(a.Self(), msg.Message{Type: msg.Gossip, Sender: b.Self(), Payload: make([]byte, 512)})
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	waitUntil(t, "B's flood reaching A", func() bool { return flooded.Load() > 100 })

	const n = 200
	for i := 1; i <= n; i++ {
		if err := a.Send(bID, msg.Message{Type: msg.Gossip, Sender: a.Self(), Round: uint64(i), Payload: make([]byte, 4<<10)}); err != nil {
			t.Fatal(err)
		}
	}
	_ = a.Close()
	got := cb.waitMsgs(t, n+1)
	inOrder(t, "A→B", got, a.Self(), n+1)
}

// TestCandidatePingAnsweredWithoutDial: an X-BOT candidate measurement — a
// PING to a peer the optimizer just probed, outside its active view — is
// answered on the prober's own connection, so the candidate dials nothing.
func TestCandidatePingAnsweredWithoutDial(t *testing.T) {
	var cDials atomic.Int64
	a, err := NewAgent("127.0.0.1:0", AgentConfig{Optimize: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	c, err := NewAgent("127.0.0.1:0", AgentConfig{Seed: 2, Transport: Config{Dial: countingDialer(&cDials)}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cID := a.tr.Register(c.Addr())
	if err := a.tr.Probe(cID); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	a.sendPing(cID)
	a.mu.Unlock()
	waitUntil(t, "the candidate's PONG", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		_, measured := a.probe.estimate(cID)
		return measured
	})
	if d := cDials.Load(); d != 0 {
		t.Errorf("candidate dialed %d times to answer a PING, want 0", d)
	}
}

func simultaneousOpen(t *testing.T, held bool, n int) {
	t.Helper()
	var ca, cb collector
	a, err := Listen("127.0.0.1:0", Config{}, ca.onMessage, ca.onDown)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	dialing := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	cfg := Config{}
	if held {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			dialing <- struct{}{}
			<-release
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	b, err := Listen("127.0.0.1:0", cfg, cb.onMessage, cb.onDown)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	aID, bID := b.Register(a.Addr()), a.Register(b.Addr())

	send := func(tr *Transport, dst id.ID, from, to int) {
		for i := from; i < to; i++ {
			if err := tr.Send(dst, msg.Message{Type: msg.Gossip, Sender: tr.Self(), Round: uint64(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	}
	var wg sync.WaitGroup
	defer func() { open(); wg.Wait() }() // a failed wait must not strand B's held dial
	if held {
		wg.Add(1)
		go func() { defer wg.Done(); send(b, aID, 0, 1) }()
		<-dialing
		send(a, bID, 0, n)
		waitUntil(t, "B adopted A's connection while its own dial was held", func() bool { return b.Connected(aID) })
		open()
		wg.Wait()
		send(b, aID, 1, n)
	} else {
		start := make(chan struct{})
		wg.Add(2)
		go func() { defer wg.Done(); <-start; send(a, bID, 0, n) }()
		go func() { defer wg.Done(); <-start; send(b, aID, 0, n) }()
		close(start)
		wg.Wait()
	}
	inOrder(t, "A→B", cb.waitMsgs(t, n), a.Self(), n)
	inOrder(t, "B→A", ca.waitMsgs(t, n), b.Self(), n)
	if lost := a.Stats().DialRacesLost + b.Stats().DialRacesLost; lost != 0 {
		t.Errorf("DialRacesLost = %d, want 0: a simultaneous open is not a lost race", lost)
	}
}
