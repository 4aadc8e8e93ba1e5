package netsim

import (
	"errors"
	"strings"
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/rng"
)

// recorder is a minimal process that records deliveries and can bounce
// messages onward.
type recorder struct {
	env      peer.Env
	got      []msg.Message
	from     []id.ID
	downs    []id.ID
	cycles   int
	bounceTo id.ID // if set, every delivery is forwarded there
}

func (r *recorder) Deliver(from id.ID, m *msg.Message) {
	r.got = append(r.got, *m)
	r.from = append(r.from, from)
	if !r.bounceTo.IsNil() {
		_ = r.env.Send(r.bounceTo, *m)
	}
}

func (r *recorder) OnCycle() { r.cycles++ }

func (r *recorder) OnPeerDown(p id.ID) { r.downs = append(r.downs, p) }

func addRecorder(s engine, nodeID id.ID) *recorder {
	var rec *recorder
	s.Add(nodeID, func(env peer.Env) peer.Process {
		rec = &recorder{env: env}
		return rec
	})
	return rec
}

func TestSendDeliverFIFO(t *testing.T) {
	s := New(1)
	a := addRecorder(s, 1)
	_ = a
	b := addRecorder(s, 2)
	for i := uint64(1); i <= 5; i++ {
		if err := s.Inject(1, 2, msg.Message{Type: msg.Gossip, Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Drain(); n != 5 {
		t.Fatalf("Drain delivered %d, want 5", n)
	}
	for i, m := range b.got {
		if m.Round != uint64(i+1) {
			t.Errorf("delivery %d has round %d; FIFO violated", i, m.Round)
		}
		if b.from[i] != 1 {
			t.Errorf("delivery %d from %v, want n1", i, b.from[i])
		}
	}
}

func TestSendToDeadFails(t *testing.T) {
	s := New(1)
	addRecorder(s, 1)
	addRecorder(s, 2)
	s.Fail(2)
	err := s.Inject(1, 2, msg.Message{Type: msg.Gossip})
	if !errors.Is(err, peer.ErrPeerDown) {
		t.Errorf("send to dead node: err = %v, want ErrPeerDown", err)
	}
	if err := s.Inject(1, 99, msg.Message{Type: msg.Gossip}); !errors.Is(err, peer.ErrPeerDown) {
		t.Errorf("send to unknown node: err = %v, want ErrPeerDown", err)
	}
}

func TestInFlightDroppedOnDeath(t *testing.T) {
	s := New(1)
	addRecorder(s, 1)
	b := addRecorder(s, 2)
	if err := s.Inject(1, 2, msg.Message{Type: msg.Gossip}); err != nil {
		t.Fatal(err)
	}
	s.Fail(2) // dies with the message in flight
	s.Drain()
	if len(b.got) != 0 {
		t.Error("dead node received an in-flight message")
	}
	if s.Stats().Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", s.Stats().Dropped)
	}
}

func TestProbeSemantics(t *testing.T) {
	s := New(1)
	a := addRecorder(s, 1)
	addRecorder(s, 2)
	if err := a.env.Probe(2); err != nil {
		t.Errorf("probe of live node failed: %v", err)
	}
	s.Fail(2)
	if err := a.env.Probe(2); !errors.Is(err, peer.ErrPeerDown) {
		t.Errorf("probe of dead node: %v, want ErrPeerDown", err)
	}
}

func TestWatchNotification(t *testing.T) {
	s := New(1)
	a := addRecorder(s, 1)
	b := addRecorder(s, 2)
	c := addRecorder(s, 3)
	a.env.Watch(3)
	b.env.Watch(3)
	b.env.Unwatch(3) // b closed its connection again
	s.Fail(3)
	_ = c
	s.Drain()
	if len(a.downs) != 1 || a.downs[0] != 3 {
		t.Errorf("watcher a downs = %v, want [n3]", a.downs)
	}
	if len(b.downs) != 0 {
		t.Errorf("unwatched b downs = %v, want none", b.downs)
	}
}

func TestWatchNotificationSkipsDeadWatchers(t *testing.T) {
	s := New(1)
	a := addRecorder(s, 1)
	addRecorder(s, 2)
	a.env.Watch(2)
	s.Fail(1) // the watcher dies first
	s.Fail(2)
	s.Drain()
	if len(a.downs) != 0 {
		t.Errorf("dead watcher was notified: %v", a.downs)
	}
}

func TestFailIdempotent(t *testing.T) {
	s := New(1)
	a := addRecorder(s, 1)
	addRecorder(s, 2)
	a.env.Watch(2)
	s.Fail(2)
	s.Fail(2) // second Fail must not queue a second notification
	s.Drain()
	if len(a.downs) != 1 {
		t.Errorf("downs = %v, want exactly one", a.downs)
	}
}

func TestReviveRestoresDelivery(t *testing.T) {
	s := New(1)
	addRecorder(s, 1)
	b := addRecorder(s, 2)
	s.Fail(2)
	s.Revive(2)
	if err := s.Inject(1, 2, msg.Message{Type: msg.Gossip}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if len(b.got) != 1 {
		t.Error("revived node did not receive message")
	}
	if !s.Alive(2) {
		t.Error("revived node not alive")
	}
}

func TestRunCycleHitsEveryLiveNode(t *testing.T) {
	s := New(1)
	recs := make([]*recorder, 5)
	for i := range recs {
		recs[i] = addRecorder(s, id.ID(i+1))
	}
	s.Fail(3)
	s.RunCycles(2)
	for i, r := range recs {
		want := 2
		if id.ID(i+1) == 3 {
			want = 0
		}
		if r.cycles != want {
			t.Errorf("node %d cycles = %d, want %d", i+1, r.cycles, want)
		}
	}
}

func TestCascadedDeliveries(t *testing.T) {
	// 1 -> 2 -> 3: node 2 bounces to 3; a single Drain must process the
	// cascade.
	s := New(1)
	addRecorder(s, 1)
	b := addRecorder(s, 2)
	c := addRecorder(s, 3)
	b.bounceTo = 3
	if err := s.Inject(1, 2, msg.Message{Type: msg.Gossip, Round: 7}); err != nil {
		t.Fatal(err)
	}
	if n := s.Drain(); n != 2 {
		t.Fatalf("Drain delivered %d, want 2", n)
	}
	if len(c.got) != 1 || c.got[0].Round != 7 {
		t.Errorf("cascade did not reach node 3: %v", c.got)
	}
}

func TestAliveBookkeeping(t *testing.T) {
	s := New(1)
	for i := 1; i <= 4; i++ {
		addRecorder(s, id.ID(i))
	}
	s.Fail(2)
	if got := s.AliveCount(); got != 3 {
		t.Errorf("AliveCount = %d, want 3", got)
	}
	alive := s.AliveIDs()
	if len(alive) != 3 {
		t.Fatalf("AliveIDs len = %d, want 3", len(alive))
	}
	for _, n := range alive {
		if n == 2 {
			t.Error("dead node listed alive")
		}
	}
	if len(s.IDs()) != 4 {
		t.Error("IDs() must include dead nodes")
	}
	if _, ok := s.Index(1); !ok {
		t.Error("Index lost node 1")
	}
	if _, ok := s.Index(99); ok {
		t.Error("Index found an unknown node")
	}
}

func TestDuplicateAddPanics(t *testing.T) {
	s := New(1)
	addRecorder(s, 1)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Add did not panic")
		}
	}()
	addRecorder(s, 1)
}

func TestOutOfSequenceAddPanics(t *testing.T) {
	// A node's id is its table position: the n-th node added is id.ID(n).
	for _, ids := range [][]id.ID{{2}, {1, 3}, {1, 2, 2}} {
		s := New(1)
		for _, nodeID := range ids[:len(ids)-1] {
			addRecorder(s, nodeID)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("adding %v did not panic", ids)
				}
			}()
			addRecorder(s, ids[len(ids)-1])
		}()
	}
}

func TestNilAddPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Error("Add(Nil) did not panic")
		}
	}()
	addRecorder(s, id.Nil)
}

func TestStatsCounters(t *testing.T) {
	s := New(1)
	addRecorder(s, 1)
	addRecorder(s, 2)
	_ = s.Inject(1, 2, msg.Message{Type: msg.Gossip})
	s.Fail(2)
	_ = s.Inject(1, 2, msg.Message{Type: msg.Gossip})
	s.Drain()
	st := s.Stats()
	if st.Sent != 1 || st.Dropped != 1 || st.SendFailures != 1 || st.Delivered != 0 {
		t.Errorf("stats = %+v", st)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", s.Pending())
	}
}

func TestPartitionBlocksCrossTraffic(t *testing.T) {
	s := New(1)
	a := addRecorder(s, 1)
	b := addRecorder(s, 2)
	s.Partition(func(n id.ID) int { return int(n % 2) })
	if err := a.env.Send(2, msg.Message{Type: msg.Gossip}); !errors.Is(err, peer.ErrPeerDown) {
		t.Errorf("cross-partition send: %v, want ErrPeerDown", err)
	}
	if err := a.env.Probe(2); !errors.Is(err, peer.ErrPeerDown) {
		t.Errorf("cross-partition probe: %v, want ErrPeerDown", err)
	}
	_ = b
	s.Heal()
	if err := a.env.Send(2, msg.Message{Type: msg.Gossip}); err != nil {
		t.Errorf("post-heal send: %v", err)
	}
	s.Drain()
	if len(b.got) != 1 {
		t.Error("post-heal message not delivered")
	}
}

func TestPartitionSameSideUnaffected(t *testing.T) {
	s := New(1)
	a := addRecorder(s, 1)
	addRecorder(s, 2) // filler: ids follow the table position
	c := addRecorder(s, 3)
	s.Partition(func(n id.ID) int { return int(n % 2) }) // 1 and 3 same side
	if err := a.env.Send(3, msg.Message{Type: msg.Gossip}); err != nil {
		t.Errorf("same-side send: %v", err)
	}
	s.Drain()
	if len(c.got) != 1 {
		t.Error("same-side message lost")
	}
}

func TestPartitionResetsOnlyCrossWatchers(t *testing.T) {
	s := New(1)
	a := addRecorder(s, 1) // group 1
	b := addRecorder(s, 2) // group 0
	c := addRecorder(s, 3) // group 1
	a.env.Watch(3)         // same side: must NOT fire
	b.env.Watch(3)         // cross side: must fire
	s.Partition(func(n id.ID) int { return int(n % 2) })
	s.Drain()
	if len(a.downs) != 0 {
		t.Errorf("same-side watcher notified: %v", a.downs)
	}
	if len(b.downs) != 1 || b.downs[0] != 3 {
		t.Errorf("cross-side watcher downs = %v, want [n3]", b.downs)
	}
	_ = c
}

func TestPartitionThenCrashStillNotifies(t *testing.T) {
	s := New(1)
	a := addRecorder(s, 1)
	addRecorder(s, 2) // filler: ids follow the table position
	addRecorder(s, 3)
	a.env.Watch(3)
	s.Partition(func(n id.ID) int { return 0 }) // everyone same group
	s.Fail(3)
	s.Drain()
	if len(a.downs) != 1 {
		t.Errorf("crash under partition not notified: %v", a.downs)
	}
}

func TestTapObservesDeliveriesDeterministically(t *testing.T) {
	run := func() []uint64 {
		s := New(7)
		var seen []uint64
		s.Tap = func(from, to id.ID, m msg.Message) {
			seen = append(seen, m.Round)
		}
		addRecorder(s, 1)
		b := addRecorder(s, 2)
		b.bounceTo = 3
		addRecorder(s, 3)
		for i := uint64(1); i <= 4; i++ {
			_ = s.Inject(1, 2, msg.Message{Type: msg.Gossip, Round: i})
		}
		s.Drain()
		return seen
	}
	a, b := run(), run()
	if len(a) != 8 { // 4 direct + 4 bounced
		t.Fatalf("tap saw %d deliveries, want 8", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tap order diverged at %d", i)
		}
	}
}

// forEachEngine runs a scenario on the oracle (oracle_test.go) and on the
// engine at 1, 2, 4 and 8 shards. Whatever the scenario asserts must hold on
// all of them, and each engine's trace — every Tap'd delivery with its
// timestamp, plus whatever the scenario appends — must be the oracle's byte
// for byte, which is returned.
func forEachEngine(t *testing.T, seed uint64, latency func(from, to id.ID, r *rng.Rand) uint64, scenario func(e engine, trace *strings.Builder)) string {
	t.Helper()
	var want string
	for _, shards := range []int{0, 1, 2, 4, 8} {
		var trace strings.Builder
		scenario(newEngine(seed, shards, latency, &trace), &trace)
		got := trace.String()
		if shards == 0 {
			want = got
		} else if got != want {
			w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
			line := 0
			for line < len(w)-1 && line < len(g)-1 && w[line] == g[line] {
				line++
			}
			t.Errorf("shards=%d: trace diverged from the oracle at line %d of %d: %q, oracle %q", shards, line+1, len(w), g[line], w[line])
		}
	}
	return want
}

func TestLatencyModeOrdersByVirtualTime(t *testing.T) {
	// Fixed per-destination latencies: message to 3 is slower than to 2,
	// so despite send order 3-first, 2 must deliver first.
	slowTo3 := func(from, to id.ID, _ *rng.Rand) uint64 {
		if to == 3 {
			return 100
		}
		return 10
	}
	forEachEngine(t, 1, slowTo3, func(e engine, trace *strings.Builder) {
		addRecorder(e, 1)
		b := addRecorder(e, 2)
		c := addRecorder(e, 3)
		_ = e.Inject(1, 3, msg.Message{Type: msg.Gossip, Round: 1})
		_ = e.Inject(1, 2, msg.Message{Type: msg.Gossip, Round: 2})
		e.Drain()
		if got, want := trace.String(), "1>2:2/0@10\n1>3:1/0@100\n"; got != want {
			t.Fatalf("deliveries:\n%swant:\n%s", got, want)
		}
		if len(b.got) != 1 || len(c.got) != 1 {
			t.Error("deliveries lost")
		}
		if e.Now() != 100 {
			t.Errorf("virtual clock = %d, want 100", e.Now())
		}
	})
}

func TestLatencyModeTieBreaksBySendOrder(t *testing.T) {
	five := func(id.ID, id.ID, *rng.Rand) uint64 { return 5 }
	forEachEngine(t, 1, five, func(e engine, _ *strings.Builder) {
		addRecorder(e, 1)
		b := addRecorder(e, 2)
		for i := uint64(1); i <= 10; i++ {
			_ = e.Inject(1, 2, msg.Message{Type: msg.Gossip, Round: i})
		}
		e.Drain()
		if len(b.got) != 10 {
			t.Fatalf("deliveries = %d, want 10", len(b.got))
		}
		for i, m := range b.got {
			if m.Round != uint64(i+1) {
				t.Fatalf("tie-break violated at %d: %d", i, m.Round)
			}
		}
	})
}

func TestLatencyModeClockAccumulatesAcrossHops(t *testing.T) {
	// 1 -> 2 -> 3 with latency 7 per hop: node 3 delivers at t=14.
	seven := func(id.ID, id.ID, *rng.Rand) uint64 { return 7 }
	forEachEngine(t, 1, seven, func(e engine, _ *strings.Builder) {
		addRecorder(e, 1)
		b := addRecorder(e, 2)
		b.bounceTo = 3
		addRecorder(e, 3)
		_ = e.Inject(1, 2, msg.Message{Type: msg.Gossip, Round: 1})
		e.Drain()
		if e.Now() != 14 {
			t.Errorf("clock = %d, want 14", e.Now())
		}
	})
}

func TestLatencyModeDeterministic(t *testing.T) {
	jitter := func(_, _ id.ID, r *rng.Rand) uint64 { return 1 + r.Uint64n(50) }
	run := func() string {
		return forEachEngine(t, 9, jitter, func(e engine, _ *strings.Builder) {
			addRecorder(e, 1)
			addRecorder(e, 2)
			addRecorder(e, 3)
			for i := uint64(1); i <= 20; i++ {
				_ = e.Inject(1, id.ID(2+i%2), msg.Message{Type: msg.Gossip, Round: i})
			}
			e.Drain()
		})
	}
	a, b := run(), run()
	if strings.Count(a, "\n") != 20 {
		t.Fatalf("trace has %d deliveries, want 20", strings.Count(a, "\n"))
	}
	if a != b {
		t.Fatal("jittered latency broke determinism")
	}
}

func TestLatencyModeDropsToDeadAndPartitioned(t *testing.T) {
	ten := func(id.ID, id.ID, *rng.Rand) uint64 { return 10 }
	forEachEngine(t, 1, ten, func(e engine, _ *strings.Builder) {
		addRecorder(e, 1)
		b := addRecorder(e, 2)
		_ = e.Inject(1, 2, msg.Message{Type: msg.Gossip})
		e.Fail(2)
		e.Drain()
		if len(b.got) != 0 {
			t.Error("dead node received a timed in-flight message")
		}
		if s, ok := e.(*Sim); ok && s.Stats().Dropped != 1 {
			t.Errorf("Dropped = %d", s.Stats().Dropped)
		}
	})
}

// TestLatencyModeWholeProtocolStillConverges: cascaded timed delivery loses
// nothing under a jittered latency model (the full HyParView flow under one
// is exercised in package core's and package sim's tests).
func TestLatencyModeWholeProtocolStillConverges(t *testing.T) {
	jitter := func(_, _ id.ID, r *rng.Rand) uint64 { return 1 + r.Uint64n(20) }
	forEachEngine(t, 33, jitter, func(e engine, _ *strings.Builder) {
		addRecorder(e, 1)
		b := addRecorder(e, 2)
		c := addRecorder(e, 3)
		b.bounceTo = 3
		for i := uint64(1); i <= 50; i++ {
			_ = e.Inject(1, 2, msg.Message{Type: msg.Gossip, Round: i})
		}
		e.Drain()
		if len(c.got) != 50 {
			t.Fatalf("cascaded timed deliveries = %d, want 50", len(c.got))
		}
	})
}

// TestDrainFiresAfterButNotEvery: Drain runs the current instant and every
// one-shot timer due after it, but a periodic registration, which would never
// let the engine go quiet, fires only under RunFor.
func TestDrainFiresAfterButNotEvery(t *testing.T) {
	s := New(1)
	a := addRecorder(s, 1)
	a.env.After(5, msg.Message{Type: msg.Tick, Round: 42})
	a.env.Every(7, msg.Message{Type: msg.Tick, Round: 43})
	s.Drain()
	if len(a.got) != 1 || a.got[0].Round != 42 {
		t.Fatalf("timer deliveries = %v, want the After(5) tick", a.got)
	}
	if got := s.RunFor(7); got != 1 {
		t.Errorf("periodic fire in RunFor = %d deliveries, want 1", got)
	}
}

func TestSchedulerEventsParkedAcrossFailure(t *testing.T) {
	s := New(1)
	a := addRecorder(s, 1)
	a.env.After(5, msg.Message{Type: msg.Tick, Round: 1})
	a.env.Every(10, msg.Message{Type: msg.Tick, Round: 2})
	s.Fail(1)
	if n := s.RunFor(40); n != 0 {
		t.Fatalf("failed node received %d deliveries", n)
	}
	if len(a.got) != 0 {
		t.Fatalf("failed node saw timers: %v", a.got)
	}
	// A dead node's periodic registration must not keep re-arming: it is
	// parked after its first due firing, so the engine goes quiet.
	if got := len(s.shards[0].pheap) + s.Pending(); got != 0 {
		t.Fatalf("dead node keeps %d events cycling through the engine", got)
	}
	// Revive: the parked one-shot fires behind current traffic, the parked
	// periodic resumes one interval from now.
	s.Revive(1)
	s.Drain()
	if len(a.got) != 1 || a.got[0].Round != 1 {
		t.Fatalf("parked timer after revive = %v, want the After tick", a.got)
	}
	s.RunFor(10)
	if len(a.got) != 2 || a.got[1].Round != 2 {
		t.Fatalf("parked periodic did not resume: %v", a.got)
	}
}
