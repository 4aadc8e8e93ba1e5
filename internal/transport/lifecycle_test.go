package transport

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyparview/internal/core"
	"hyparview/internal/faults"
	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
)

// The connection-lifecycle contracts: a link is born with its connection
// and ends with it. A watched peer whose one dial fails, or whose link's
// connection ends, is a failed neighbour (§4.1) — its watch fires once, its
// queued frames return to the pool, and nothing redials it;
// deliberate teardown drains queued frames before the FIN; the RTT prober's
// half-open suspicion condemns stalled-but-ACKing peers; and all of it
// holds under concurrent Send/Probe/Watch/Drain/Suspect/Close pressure with
// socket-level faults injected (internal/faults.Sockets).

// countDials returns a Config whose dials go through s and are counted in n.
func countDials(s *faults.Sockets, n *atomic.Int64) Config {
	return Config{Dial: s.Dialer(func(addr string, timeout time.Duration) (net.Conn, error) {
		n.Add(1)
		return net.DialTimeout("tcp", addr, timeout)
	})}
}

// writersDone waits until every link writer of tr has exited, so every link
// tr opened is gone.
func writersDone(t *testing.T, tr *Transport) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		tr.writers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("link writers still running")
	}
}

// downCount reads how many watch notifications c has collected.
func (c *collector) downCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.downs)
}

// gatedCollector is a collector whose deliveries and downs also count
// through a gate, so a test waits on them without sleeping.
type gatedCollector struct {
	collector
	g             *gate
	nmsgs, ndowns atomic.Int64
}

// listenGated is listenWith for a gatedCollector.
func listenGated(t *testing.T, cfg Config, c *gatedCollector) *Transport {
	t.Helper()
	c.g = newGate()
	tr, err := Listen("127.0.0.1:0", cfg, func(from id.ID, m msg.Message) {
		c.onMessage(from, m)
		c.g.hit(&c.nmsgs)
	}, func(p id.ID) {
		c.onDown(p)
		c.g.hit(&c.ndowns)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// awaitMsgs waits on the gate for n deliveries and returns them.
func (c *gatedCollector) awaitMsgs(t *testing.T, n int) []msg.Message {
	t.Helper()
	c.g.await(t, "deliveries", &c.nmsgs, int64(n), 3*time.Second)
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]msg.Message(nil), c.msgs...)
}

// awaitDowns waits on the gate for n downs and returns them.
func (c *gatedCollector) awaitDowns(t *testing.T, n int) []id.ID {
	t.Helper()
	c.g.await(t, "downs", &c.ndowns, int64(n), 3*time.Second)
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]id.ID(nil), c.downs...)
}

// TestWatchFailedDialFiresOnce: Watch dials a peer with no link, and that
// one dial fails. The watch fires exactly once, no link is left behind, and
// the peer is never dialed again.
func TestWatchFailedDialFiresOnce(t *testing.T) {
	s := faults.NewSockets(1)
	var dials atomic.Int64
	var ca gatedCollector
	var cb collector
	a := listenGated(t, countDials(s, &dials), &ca)
	b := listen(t, &cb)
	dst := a.Register(b.Addr())

	s.FailNextDials(1)
	a.Watch(dst)
	if downs := ca.awaitDowns(t, 1); downs[0] != dst {
		t.Errorf("down = %v, want %v", downs[0], dst)
	}
	if a.Connected(dst) {
		t.Error("a failed Watch dial left a link")
	}
	// A failed dial opens no link, so nothing is left to dial the peer again.
	writersDone(t, a)
	if n := ca.ndowns.Load(); n != 1 {
		t.Errorf("watch fired %d times, want 1", n)
	}
	if n := dials.Load(); n != 0 {
		t.Errorf("peer dialed %d times past the injected failure, want 0", n)
	}
	if n := s.Stats().DialsFailed; n != 1 {
		t.Errorf("injected dial failures = %d, want 1", n)
	}
}

// TestWatchAfterFailedDialDialsAgain: a failed Watch dial fires the watch
// once, and recovery is the caller's: its next Watch dials the peer again,
// once, and frames flow with no further down.
func TestWatchAfterFailedDialDialsAgain(t *testing.T) {
	s := faults.NewSockets(1)
	var dials atomic.Int64
	var ca, cb gatedCollector
	a := listenGated(t, countDials(s, &dials), &ca)
	b := listenGated(t, Config{}, &cb)
	dst := a.Register(b.Addr())

	s.FailNextDials(1)
	a.Watch(dst)
	ca.awaitDowns(t, 1)
	if n := dials.Load(); n != 0 {
		t.Fatalf("peer dialed %d times past the injected failure, want 0", n)
	}

	a.Watch(dst)
	if !a.Connected(dst) {
		t.Error("the re-watched peer has no connection once Watch returns")
	}
	if err := a.Send(dst, msg.Message{Type: msg.Gossip, Sender: a.Self(), Round: 7}); err != nil {
		t.Fatal(err)
	}
	if got := cb.awaitMsgs(t, 1); got[0].Round != 7 {
		t.Errorf("delivered round %d, want 7", got[0].Round)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("peer dialed %d times after the re-watch, want 1", n)
	}
	if n := ca.ndowns.Load(); n != 1 {
		t.Errorf("watch fired %d times, want 1", n)
	}
	if n := s.Stats().DialsFailed; n != 1 {
		t.Errorf("injected dial failures = %d, want 1", n)
	}
}

// TestWatchFailedDialFiresAfterCallerUnlocks pins the agent-lock contract
// of the transport calls that fire a watch: the agent calls Watch, and
// Suspect on a half-open verdict, holding the lock its down callback takes.
// Each must return without firing the watch on its caller, and exactly one
// down arrives once the caller unlocks — for a Watch whose dial fails, and
// for a Suspect of a connected peer.
func TestWatchFailedDialFiresAfterCallerUnlocks(t *testing.T) {
	cases := []struct {
		name string
		// setup prepares a's view of dst and returns the call made under the
		// caller's lock.
		setup func(t *testing.T, s *faults.Sockets, a *Transport, dst id.ID) func()
	}{
		{"failed Watch dial", func(_ *testing.T, s *faults.Sockets, a *Transport, dst id.ID) func() {
			s.FailNextDials(1)
			return func() { a.Watch(dst) }
		}},
		{"Suspect of a connected peer", func(t *testing.T, _ *faults.Sockets, a *Transport, dst id.ID) func() {
			a.Watch(dst)
			if !a.Connected(dst) {
				t.Fatal("Watch left no link to suspect")
			}
			return func() { a.Suspect(dst) }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := faults.NewSockets(11)
			var cb collector
			b := listen(t, &cb)
			var mu sync.Mutex // the agent lock
			unlocked := false
			g := newGate()
			var downs, early atomic.Int64
			a, err := Listen("127.0.0.1:0", Config{Dial: s.Dialer(nil)}, func(id.ID, msg.Message) {}, func(id.ID) {
				mu.Lock()
				defer mu.Unlock()
				if !unlocked {
					early.Add(1)
				}
				g.hit(&downs)
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = a.Close() })
			dst := a.Register(b.Addr())
			call := tc.setup(t, s, a, dst)

			returned := make(chan struct{})
			mu.Lock()
			go func() {
				call()
				close(returned)
			}()
			select {
			case <-returned:
			case <-time.After(5 * time.Second):
				mu.Unlock() // let a down blocked on the lock finish, so Close can join it
				t.Fatal("the call did not return while its caller held the lock the down callback takes")
			}
			unlocked = true
			mu.Unlock()
			g.await(t, "downs", &downs, 1, 3*time.Second)
			// Close joins every goroutine the transport started, so no
			// second down can still be on its way.
			_ = a.Close()
			if n := downs.Load(); n != 1 {
				t.Errorf("%d downs, want exactly 1", n)
			}
			if n := early.Load(); n != 0 {
				t.Errorf("%d downs fired while the caller held its lock", n)
			}
		})
	}
}

// TestPersistentFailureFiresWithinWindow: a watched peer that is not
// listening is reported after one dial — a refused connection on loopback,
// so well within one dial timeout — and not dialed again.
func TestPersistentFailureFiresWithinWindow(t *testing.T) {
	var dials atomic.Int64
	var ca, cb collector
	a := listenWith(t, countDials(faults.NewSockets(2), &dials), &ca)
	// Reserve an address, then close it so nothing ever listens there.
	b := listen(t, &cb)
	addr := b.Addr()
	_ = b.Close()
	dead := a.Register(addr)

	start := time.Now()
	a.Watch(dead)
	downs := ca.waitDowns(t, 1)
	elapsed := time.Since(start)
	if downs[0] != dead {
		t.Errorf("down = %v, want %v", downs[0], dead)
	}
	if elapsed > dialTimeout {
		t.Errorf("watch fired after %v, want within one dial timeout (%v)", elapsed, dialTimeout)
	}
	writersDone(t, a)
	if n := dials.Load(); n != 1 {
		t.Errorf("peer dialed %d times, want 1", n)
	}
	if n := ca.downCount(); n != 1 {
		t.Errorf("watch fired %d times, want 1", n)
	}
}

// TestWriteFailureFiresDownOnce: a reset on an established watched link is
// a failed neighbour (§4.1). The watch fires once, the link is gone, and
// nothing redials the peer.
func TestWriteFailureFiresDownOnce(t *testing.T) {
	s := faults.NewSockets(2)
	var dials atomic.Int64
	var ca, cb collector
	a := listenWith(t, countDials(s, &dials), &ca)
	b := listen(t, &cb)
	dst := a.Register(b.Addr())

	if err := a.Probe(dst); err != nil {
		t.Fatal(err)
	}
	a.Watch(dst)
	if err := a.Send(dst, msg.Message{Type: msg.Gossip, Sender: a.Self(), Round: 0}); err != nil {
		t.Fatal(err)
	}
	cb.waitMsgs(t, 1)

	s.ResetNextWrites(1)
	if err := a.Send(dst, msg.Message{Type: msg.Gossip, Sender: a.Self(), Round: 1}); err != nil {
		t.Fatal(err)
	}
	if downs := ca.waitDowns(t, 1); downs[0] != dst {
		t.Errorf("down = %v, want %v", downs[0], dst)
	}
	writersDone(t, a)
	if n := ca.downCount(); n != 1 {
		t.Errorf("watch fired %d times for one reset, want 1", n)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("peer dialed %d times, want 1: nothing redials a failed link", n)
	}
	if a.Connected(dst) {
		t.Error("a failed link still reports a connection")
	}
}

// heldConn holds every write until release is closed.
type heldConn struct {
	net.Conn
	release <-chan struct{}
}

func (c *heldConn) Write(p []byte) (int, error) {
	<-c.release
	return c.Conn.Write(p)
}

// TestResetJoinRejoins: a reset eats the joiner's JOIN. That is a failed
// neighbour: the joiner is told NeighborDown for its contact, which leaves
// both its views empty, and its next cycle joins the contact again. The
// contact runs no cycles, so only the joiner can mend the loss; a joiner
// that kept the link and lost the JOIN would hold a one-way edge to a
// contact that never heard of it.
func TestResetJoinRejoins(t *testing.T) {
	s := faults.NewSockets(10)
	g := newGate()
	var ups, downs atomic.Int64
	contact, err := NewAgent("127.0.0.1:0", AgentConfig{
		Seed:         1,
		OnNeighborUp: func(id.ID) { g.hit(&ups) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer contact.Close()
	// The joiner takes its contact into the active view, and so watches it,
	// before its first NeighborUp: the JOIN's write is held until then, so
	// the reset ends a watched link.
	watched := make(chan struct{})
	var once sync.Once
	joiner, err := NewAgent("127.0.0.1:0", AgentConfig{
		CyclePeriod: 20 * time.Millisecond,
		Seed:        2,
		Transport: Config{Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := s.Dialer(nil)(addr, timeout)
			if err != nil {
				return nil, err
			}
			return &heldConn{Conn: c, release: watched}, nil
		}},
		OnNeighborUp: func(id.ID) {
			once.Do(func() { close(watched) })
			g.hit(&ups)
		},
		OnNeighborDown: func(id.ID, core.DownReason) { g.hit(&downs) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()

	s.ResetNextWrites(1)
	if err := joiner.Join(contact.Addr()); err != nil {
		t.Fatal(err)
	}
	g.await(t, "joiner's NeighborDown for its reset contact", &downs, 1, 3*time.Second)
	symmetric := func() bool {
		cv, jv := contact.ActiveView(), joiner.ActiveView()
		return len(cv) == 1 && cv[0] == joiner.Self() && len(jv) == 1 && jv[0] == contact.Self()
	}
	if !g.wait(5*time.Second, symmetric) {
		t.Fatalf("views never became symmetric: contact %v, joiner %v", contact.ActiveView(), joiner.ActiveView())
	}
	if got := s.Stats().Resets; got != 1 {
		t.Errorf("injected resets = %d, want 1", got)
	}
}

// TestGracefulDrainDeliversQueuedFrames: Drain must flush every frame
// already accepted into the queue before closing — the courtesy-DISCONNECT
// guarantee — then retire the link without firing the watch.
func TestGracefulDrainDeliversQueuedFrames(t *testing.T) {
	var ca, cb collector
	a := listen(t, &ca)
	b := listen(t, &cb)
	dst := a.Register(b.Addr())
	balanceBefore := scratchBalance.Load()

	const frames = 40
	for i := 0; i < frames; i++ {
		if err := a.Send(dst, msg.Message{Type: msg.Gossip, Sender: a.Self(), Round: uint64(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	a.Drain(dst)

	got := cb.waitMsgs(t, frames)
	seen := make(map[uint64]bool, len(got))
	for _, m := range got {
		seen[m.Round] = true
	}
	for i := uint64(0); i < frames; i++ {
		if !seen[i] {
			t.Errorf("frame %d accepted before Drain never delivered", i)
		}
	}
	waitStat(t, func() uint64 { return a.Stats().Drained }, 1, "Drained")
	deadline := time.Now().Add(2 * time.Second)
	for (a.Connected(dst) || scratchBalance.Load() != balanceBefore) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if a.Connected(dst) {
		t.Error("connection still cached after Drain")
	}
	if got := scratchBalance.Load(); got != balanceBefore {
		t.Errorf("scratch balance %d after drain, want %d", got, balanceBefore)
	}
	ca.mu.Lock()
	downs := len(ca.downs)
	ca.mu.Unlock()
	if downs != 0 {
		t.Errorf("watch fired %d times on a deliberate drain, want 0", downs)
	}
}

// TestDialRaceLostCounted: two concurrent first-contact Sends race the dial;
// the loser's connection is discarded and counted, and both frames deliver
// over the winning link.
func TestDialRaceLostCounted(t *testing.T) {
	s := faults.NewSockets(3)
	s.SetPlan(faults.ConnPlan{DialDelay: 50 * time.Millisecond})
	var ca, cb collector
	a := listenWith(t, Config{Dial: s.Dialer(nil)}, &ca)
	b := listen(t, &cb)
	dst := a.Register(b.Addr())

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			errs[g] = a.Send(dst, msg.Message{Type: msg.Gossip, Sender: a.Self(), Round: uint64(g)})
		}(g)
	}
	close(start)
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("send %d: %v", g, err)
		}
	}
	cb.waitMsgs(t, 2)
	if got := a.Stats().DialRacesLost; got < 1 {
		t.Errorf("DialRacesLost = %d, want >= 1 with a held-open dial window", got)
	}
}

// TestResetStormPoolBalance: round after round a watched link carries
// frames under a reset and torn-write mix until the storm kills it. Each
// death fires the watch exactly once, and once the storm ends the frame
// pool balances: no path strands a queued or gathered frame.
func TestResetStormPoolBalance(t *testing.T) {
	s := faults.NewSockets(4)
	s.SetPlan(faults.ConnPlan{Reset: 0.05, Partial: 0.02})
	var ca, cb collector
	a := listenWith(t, Config{Dial: s.Dialer(nil)}, &ca)
	b := listen(t, &cb)
	dst := a.Register(b.Addr())
	balanceBefore := scratchBalance.Load()

	const rounds = 20
	for round := 0; round < rounds; round++ {
		a.Watch(dst)
		a.mu.Lock()
		l := a.conns[dst]
		a.mu.Unlock()
		for i := 0; !l.condemned.Load(); i++ {
			if i == 100000 {
				t.Fatalf("round %d: the link outlived a forced reset", round)
			}
			if i == 300 {
				s.ResetNextWrites(1) // at least one death per round regardless of the draw
			}
			err := a.Send(dst, msg.Message{Type: msg.Gossip, Sender: a.Self(), Round: uint64(i), Payload: []byte("storm")})
			if errors.Is(err, peer.ErrOverflow) {
				time.Sleep(200 * time.Microsecond)
			}
		}
		// Wait for this death's watch to fire before the next Watch arms it.
		ca.waitDowns(t, round+1)
	}
	s.SetPlan(faults.ConnPlan{}) // storm over
	// A Send that raced the last death finds no link and dials a fresh one,
	// as first contact does; nothing ends that link, so drain it (a drain
	// fires no watch) before waiting for the writers.
	a.Drain(dst)

	writersDone(t, a)
	deadline := time.Now().Add(3 * time.Second)
	for scratchBalance.Load() != balanceBefore && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := scratchBalance.Load(); got != balanceBefore {
		t.Errorf("scratch balance %d after the storm, want %d: frames leaked", got, balanceBefore)
	}
	if got := s.Stats().Resets + s.Stats().Partials; got < rounds {
		t.Errorf("injected resets and torn writes = %d, want >= %d", got, rounds)
	}
	if n := ca.downCount(); n != rounds {
		t.Errorf("watch fired %d times for %d watched-link deaths", n, rounds)
	}
}

// TestConcurrentLifecycleRace hammers every lifecycle entry point at once —
// Send, Probe, Watch, Unwatch, Drain, Suspect — against a link with injected
// resets, then closes both ends. Any per-call outcome is legal; what must
// hold under -race is no deadlock, no double-put, and a clean frame-pool
// balance after the dust settles.
func TestConcurrentLifecycleRace(t *testing.T) {
	balanceBefore := scratchBalance.Load()
	s := faults.NewSockets(5)
	s.SetPlan(faults.ConnPlan{Reset: 0.02})
	var ca, cb collector
	a := listenWith(t, Config{Dial: s.Dialer(nil)}, &ca)
	b := listen(t, &cb)
	dst := a.Register(b.Addr())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	ops := []func(){
		func() { _ = a.Send(dst, msg.Message{Type: msg.Gossip, Sender: a.Self(), Round: 1}) },
		func() { _ = a.Probe(dst) },
		func() { a.Watch(dst) },
		func() { a.Unwatch(dst) },
		func() { a.Drain(dst) },
		func() { a.Suspect(dst) },
	}
	for _, op := range ops {
		wg.Add(1)
		go func(op func()) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				op()
				time.Sleep(time.Millisecond)
			}
		}(op)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	_ = a.Close()
	_ = b.Close()

	deadline := time.Now().Add(2 * time.Second)
	for scratchBalance.Load() != balanceBefore && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := scratchBalance.Load(); got != balanceBefore {
		t.Errorf("scratch balance %d after concurrent lifecycle churn, want %d", got, balanceBefore)
	}
}

// TestProbeDetectsDeadCachedConn pins the peek-based health check behind the
// Probe fix deterministically: the blackhole parks the reader (it never
// reports the EOF), so the cached connection stays installed and only the
// MSG_PEEK check can notice the FIN the kernel already holds. Linux-only by
// construction — other platforms fall back to the reader/prober detectors.
func TestProbeDetectsDeadCachedConn(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("peek-based health check is linux-only")
	}
	s := faults.NewSockets(6)
	var ca, cb collector
	a := listenWith(t, Config{Dial: s.Dialer(nil)}, &ca)
	b := listen(t, &cb)
	dst := a.Register(b.Addr())

	if err := a.Probe(dst); err != nil {
		t.Fatalf("probe of live peer: %v", err)
	}
	s.Blackhole(true)
	_ = b.Close()

	// The reader is parked in the blackhole, so the dead connection stays
	// cached: without the peek check Probe would answer nil from the cache
	// forever.
	if !a.Connected(dst) {
		t.Fatal("cached connection already gone; the scenario needs a parked reader")
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		err := a.Probe(dst)
		if errors.Is(err, peer.ErrPeerDown) {
			break
		}
		if err == nil && time.Now().After(deadline) {
			t.Fatal("probe kept trusting a dead cached connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSuspicionDetectsBlackholedPeer is the end-to-end half-open story: a
// neighbor whose process wedges while its kernel keeps ACKing (blackhole)
// looks healthy to every TCP write, so only the RTT prober can convict it.
// With SuspectAfter armed, the agent must fire NeighborDown within the
// suspicion window and count the condemnation.
func TestSuspicionDetectsBlackholedPeer(t *testing.T) {
	s := faults.NewSockets(7)
	downs := make(chan id.ID, 4)
	a, err := NewAgent("127.0.0.1:0", AgentConfig{
		CyclePeriod:  50 * time.Millisecond,
		SuspectAfter: 3,
		Seed:         1,
		OnNeighborDown: func(p id.ID, reason core.DownReason) {
			select {
			case downs <- p:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewAgent("127.0.0.1:0", AgentConfig{
		CyclePeriod: 50 * time.Millisecond,
		Seed:        2,
		Transport: Config{
			Dial:     s.Dialer(nil),
			WrapConn: s.Wrap,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "symmetric views", func() bool {
		av, bv := a.ActiveView(), b.ActiveView()
		return len(av) == 1 && av[0] == b.Self() && len(bv) == 1 && bv[0] == a.Self()
	})

	// b's process "wedges": every one of its sockets goes silent while the
	// kernel keeps ACKing. a's writes keep succeeding; only unanswered PINGs
	// reveal the stall.
	s.Blackhole(true)
	select {
	case p := <-downs:
		if p != b.Self() {
			t.Errorf("NeighborDown for %v, want the blackholed peer %v", p, b.Self())
		}
	case <-time.After(3 * time.Second):
		t.Fatal("suspicion never fired NeighborDown for the blackholed peer")
	}
	if got := a.TransportStats().Suspected; got < 1 {
		t.Errorf("Suspected = %d, want >= 1", got)
	}
	// The verdict's Suspect fired the watch, whose callback takes the agent
	// lock: fired on the caller's goroutine, it would have deadlocked the
	// agent.
	answered := make(chan struct{})
	go func() { _ = a.ActiveView(); close(answered) }()
	select {
	case <-answered:
	case <-time.After(time.Second):
		t.Fatal("ActiveView did not return after the suspicion verdict")
	}
	// Release b's parked readers before its Close tears the agent down.
	s.Blackhole(false)
}

// TestLifecycleSoak is the CI lifecycle gate: 12 agents under injected
// socket resets, one of them blackholed mid-run (stalled, not closed). The
// survivors must convict and purge the wedged peer via suspicion, and a
// post-purge broadcast burst must reach the live agents at reliability
// >= 0.99 while resets keep failing links underneath, each one repaired
// from the passive view. The victim runs no prober, as a wedged process
// runs nothing: a prober of its own would convict every neighbour whose
// PONGs its blackhole swallows and close those sockets, and its survivors
// would see the connection end before their own suspicion fired.
func TestLifecycleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injected multi-agent loopback soak")
	}
	const n = 12
	const victim = n - 1
	socks := make([]*faults.Sockets, n)
	delivered := make([]atomic.Int64, n)
	agents := make([]*Agent, n)
	for i := 0; i < n; i++ {
		socks[i] = faults.NewSockets(uint64(i + 1))
		socks[i].SetPlan(faults.ConnPlan{Reset: 0.01})
		i := i
		suspectAfter := 3
		if i == victim {
			suspectAfter = 0
		}
		a, err := NewAgent("127.0.0.1:0", AgentConfig{
			CyclePeriod:  100 * time.Millisecond,
			SuspectAfter: suspectAfter,
			Seed:         uint64(i + 1),
			Transport: Config{
				Dial:     socks[i].Dialer(nil),
				WrapConn: socks[i].Wrap,
			},
			OnDeliver: func([]byte) { delivered[i].Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
	}
	defer func() {
		for i, a := range agents {
			socks[i].Blackhole(false) // release parked readers before Close
			_ = a.Close()
		}
	}()
	for _, a := range agents[1:] {
		if err := a.Join(agents[0].Addr()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond) // let shuffles symmetrize the overlay

	// The victim wedges: its sockets go silent, its kernel keeps ACKing.
	// Resets pause meanwhile: a reset on a link to the victim would purge
	// it too, and suspicion must stay the only way it can go.
	victimID := agents[victim].Self()
	for _, s := range socks {
		s.SetPlan(faults.ConnPlan{})
	}
	holders := 0
	for _, a := range agents[:victim] {
		if slices.Contains(a.ActiveView(), victimID) {
			holders++
		}
	}
	socks[victim].Blackhole(true)

	// Survivors must purge the victim from their active views via suspicion.
	deadline := time.Now().Add(8 * time.Second)
	for {
		clean := true
		for i := 0; i < victim; i++ {
			for _, p := range agents[i].ActiveView() {
				if p == victimID {
					clean = false
				}
			}
		}
		if clean {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blackholed peer never purged from the survivors' active views (%d held it when it wedged)", holders)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var suspected uint64
	for i := 0; i < victim; i++ {
		suspected += agents[i].TransportStats().Suspected
	}
	if suspected == 0 {
		t.Errorf("no survivor counted a suspicion verdict for the blackholed peer (%d held it when it wedged)", holders)
	}

	// Post-purge burst among the survivors with resets injected again: flood
	// redundancy plus view repair must hold reliability.
	for _, s := range socks {
		s.SetPlan(faults.ConnPlan{Reset: 0.01})
	}
	const msgs = 20
	var before int64
	for i := 0; i < victim; i++ {
		before += delivered[i].Load()
	}
	for i := 0; i < msgs; i++ {
		if err := agents[i%victim].Broadcast([]byte{byte(i)}); err != nil {
			t.Fatalf("broadcast %d: %v", i, err)
		}
	}
	want := int64(msgs * victim)
	deadline = time.Now().Add(20 * time.Second)
	var got int64
	for time.Now().Before(deadline) {
		got = -before
		for i := 0; i < victim; i++ {
			got += delivered[i].Load()
		}
		if got >= want {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	reliability := float64(got) / float64(want)
	t.Logf("soak: reliability %.4f (%d/%d), suspicions %d, %d survivors held the victim", reliability, got, want, suspected, holders)
	if reliability < 0.99 {
		t.Errorf("reliability %.4f < 0.99 among live agents", reliability)
	}
}

// TestWatchThenSendDialsOnce: Watch dials a peer with no link before it
// returns, and a Send right behind it rides that link. With every dial held
// open 50ms — long enough for a second dial to overlap the first — the peer
// is dialed exactly once, no dial race is lost, the frames arrive once and
// in order, and the slow dial fires no watch.
func TestWatchThenSendDialsOnce(t *testing.T) {
	s := faults.NewSockets(8)
	s.SetPlan(faults.ConnPlan{DialDelay: 50 * time.Millisecond})
	var dials atomic.Int64
	var ca, cb gatedCollector
	a := listenGated(t, countDials(s, &dials), &ca)
	b := listenGated(t, Config{}, &cb)
	dst := a.Register(b.Addr())

	a.Watch(dst)
	if !a.Connected(dst) {
		t.Fatal("no connection once Watch returned")
	}
	for round := uint64(1); round <= 2; round++ {
		if err := a.Send(dst, msg.Message{Type: msg.Gossip, Sender: a.Self(), Round: round}); err != nil {
			t.Fatalf("send %d behind a watch: %v", round, err)
		}
	}
	// One connection delivers in order, so a duplicate of frame 1 would
	// arrive before frame 2 does.
	if got := cb.awaitMsgs(t, 2); len(got) != 2 || got[0].Round != 1 || got[1].Round != 2 {
		t.Errorf("delivered rounds %v, want exactly [1 2]", rounds(got))
	}
	if n := a.Stats().DialRacesLost; n != 0 {
		t.Errorf("DialRacesLost = %d, want 0: Watch and Send dialed the peer separately", n)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("peer dialed %d times, want 1", n)
	}
	if n := ca.ndowns.Load(); n != 0 {
		t.Errorf("watch fired %d times for a slow dial, want 0", n)
	}
}

// TestDialRaceFreeOverlay: in an agent overlay where the agent lock
// serializes every Send and Probe (no optimizer, no suspicion prober), nothing
// dials a peer concurrently with anything else, so no dial race is lost —
// in particular not between a Watch and the NEIGHBOR reply that follows it.
func TestDialRaceFreeOverlay(t *testing.T) {
	const n, msgs = 8, 5
	var delivered atomic.Int64
	agents := make([]*Agent, n)
	for i := range agents {
		a, err := NewAgent("127.0.0.1:0", AgentConfig{
			Seed:      uint64(i + 1),
			OnDeliver: func([]byte) { delivered.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		defer a.Close()
	}
	for _, a := range agents[1:] {
		if err := a.Join(agents[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	// Manual cycles until the active views are symmetric and connected, so a
	// flood from anywhere reaches everyone.
	deadline := time.Now().Add(10 * time.Second)
	for report := unsettled(agents); report != ""; report = unsettled(agents) {
		if time.Now().After(deadline) {
			t.Fatalf("overlay never settled into symmetric, connected active views:\n%s", report)
		}
		for _, a := range agents {
			if err := a.Cycle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < msgs; i++ {
		if err := agents[i%n].Broadcast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitStat(t, func() uint64 { return uint64(delivered.Load()) }, n*msgs, "deliveries")
	var lost uint64
	for _, a := range agents {
		lost += a.TransportStats().DialRacesLost
	}
	if lost != 0 {
		t.Errorf("summed DialRacesLost = %d, want 0", lost)
	}
}

// settled reports whether the agents' active views are symmetric and
// connect every agent.
func settled(agents []*Agent) bool { return unsettled(agents) == "" }

// unsettled explains why the agents have not settled, or returns "" once
// they have: every one-way edge (p holds q, q lacks p), every agent the
// views do not reach from agents[0], then each agent's active view. Agents
// are named by their index.
func unsettled(agents []*Agent) string {
	index := make(map[id.ID]int, len(agents))
	views := make([][]id.ID, len(agents))
	for i, a := range agents {
		index[a.Self()] = i
		views[i] = a.ActiveView()
	}
	name := func(p id.ID) string {
		if i, ok := index[p]; ok {
			return strconv.Itoa(i)
		}
		return p.String()
	}
	var b strings.Builder
	for i, view := range views {
		for _, q := range view {
			if j, ok := index[q]; !ok || !slices.Contains(views[j], agents[i].Self()) {
				fmt.Fprintf(&b, "one-way edge %d→%s: missing %s→%d\n", i, name(q), name(q), i)
			}
		}
	}
	reached := map[int]bool{0: true}
	frontier := []int{0}
	for len(frontier) > 0 {
		p := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, q := range views[p] {
			if j, ok := index[q]; ok && !reached[j] {
				reached[j] = true
				frontier = append(frontier, j)
			}
		}
	}
	for i := range agents {
		if !reached[i] {
			fmt.Fprintf(&b, "agent %d unreached from agent 0\n", i)
		}
	}
	if b.Len() == 0 {
		return ""
	}
	for i, view := range views {
		fmt.Fprintf(&b, "agent %d active view:", i)
		for _, q := range view {
			fmt.Fprintf(&b, " %s", name(q))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func rounds(ms []msg.Message) []uint64 {
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.Round
	}
	return out
}
