package netsim

// Engine-level pins for the wave/barrier engine (shards.go): trace equality
// with the oracle at every shard count (shards == 1 is the engine New
// builds), hook re-entry (Redeliver from an Intercept hook) while waves run
// on the shard workers, and a parallel-wave exerciser that the CI -race step
// leans on. Tests that need the concurrent path raise GOMAXPROCS before
// construction: NewSharded captures it, and a single-P runtime would
// otherwise take the (identical in outcome) serial wave path.

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/rng"
)

// engine is what the differential scenarios drive: *Sim at any shard count,
// and the oracle (oracle_test.go).
type engine interface {
	Add(id.ID, func(peer.Env) peer.Process)
	Inject(from, to id.ID, m msg.Message) error
	Drain() int
	RunFor(d uint64) int
	Fail(id.ID)
	Revive(id.ID)
	Now() uint64
}

// newEngine builds an empty engine — the oracle for shards == 0 — with the
// latency function installed and every delivery appended to *trace.
func newEngine(seed uint64, shards int, latency func(from, to id.ID, r *rng.Rand) uint64, trace *strings.Builder) engine {
	var e engine
	tap := func(from, to id.ID, m msg.Message) {
		fmt.Fprintf(trace, "%d>%d:%d/%d@%d\n", from, to, m.Round, m.TTL, e.Now())
	}
	if shards == 0 {
		e = &oracle{rand: rng.New(seed), Latency: latency, Tap: tap}
	} else {
		s := NewSharded(seed, shards)
		s.Latency, s.Tap = latency, tap
		e = s
	}
	return e
}

// chatty is a ring forwarder that also owns timers: every third round it
// forwards arms a one-shot timer, it registers a periodic round at
// construction, and each timer or round that fires sends a short-lived
// message of its own.
type chatty struct {
	env  peer.Env
	next id.ID
}

func (p *chatty) OnCycle() {}

func (p *chatty) Deliver(from id.ID, m *msg.Message) {
	switch {
	case m.Type == msg.Tick:
		_ = p.env.Send(p.next, msg.Message{Type: msg.Gossip, Round: m.Round, TTL: 2})
	case m.TTL > 0:
		if m.Round%3 == 0 {
			p.env.After(m.Round%5, msg.Message{Type: msg.Tick, Round: 1000 + m.Round})
		}
		fwd := *m
		fwd.TTL--
		_ = p.env.Send(p.next, fwd)
	}
}

// Differential scenarios: each drives an engine and returns a summary of what
// Drain and RunFor reported; the Tap trace accumulates on the side.
var scenarios = []struct {
	name    string
	latency func(from, to id.ID, r *rng.Rand) uint64
	run     func(e engine) string
}{
	{"fifo ring", nil, ringScenario},
	{"jittered ring", func(_, _ id.ID, r *rng.Rand) uint64 { return 1 + r.Uint64n(40) }, ringScenario},
	{"constant latency ring", func(id.ID, id.ID, *rng.Rand) uint64 { return 5 }, ringScenario},
	{"timers, rounds and churn", nil, churnScenario},
	{"timers, rounds and churn, jittered", func(_, _ id.ID, r *rng.Rand) uint64 { return r.Uint64n(4) }, churnScenario},
}

// ringScenario is the TTL ring of the engine benchmarks: 96 messages of 16
// hops injected around a ring of 200.
func ringScenario(e engine) string {
	const n = 200
	for i := 0; i < n; i++ {
		next := id.ID((i+1)%n + 1)
		e.Add(id.ID(i+1), func(env peer.Env) peer.Process { return &ringProc{env: env, next: next} })
	}
	for k := 0; k < 96; k++ {
		src := id.ID(k%n + 1)
		_ = e.Inject(src, id.ID(uint64(src)%n+1), msg.Message{Type: msg.Gossip, Round: uint64(k), TTL: 16})
	}
	return fmt.Sprint(e.Drain(), e.Now())
}

// churnScenario mixes everything the oracle models: traffic, one-shot timers
// armed from handlers, periodic rounds of three different intervals, RunFor
// windows and Drains (which freeze the rounds and leave them stale), and a
// stripe of nodes failed with traffic, timers and rounds pending, then
// revived.
func churnScenario(e engine) string {
	const n = 64
	for i := 0; i < n; i++ {
		next := id.ID((i+1+i%5)%n + 1)
		e.Add(id.ID(i+1), func(env peer.Env) peer.Process {
			env.Every(uint64(7+i%3), msg.Message{Type: msg.Tick, Round: uint64(2000 + i)})
			return &chatty{env: env, next: next}
		})
	}
	inject := func(base int) {
		for k := 0; k < 32; k++ {
			_ = e.Inject(id.ID(k+1), id.ID((2*k+base)%n+1), msg.Message{Type: msg.Gossip, Round: uint64(base + k), TTL: 6})
		}
	}
	stripe := func(f func(id.ID)) {
		for i := 5; i < 16; i++ {
			f(id.ID(i))
		}
	}
	var out []int
	inject(0)
	out = append(out, e.RunFor(20))
	stripe(e.Fail)
	inject(100)
	out = append(out, e.Drain(), e.RunFor(30))
	stripe(e.Revive)
	inject(200)
	out = append(out, e.RunFor(25), e.Drain(), e.RunFor(40))
	return fmt.Sprint(out, e.Now())
}

// TestEngineMatchesOracleTrace is the engine's differential pin: at every
// shard count — one shard is what New builds — each scenario's Tap trace,
// timestamps included, and its delivery counts equal the oracle's byte for
// byte. Run at -cpu 1,2,4 in CI: waves are serial at GOMAXPROCS=1 and on the
// shard workers above.
func TestEngineMatchesOracleTrace(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			want := forEachEngine(t, 11, sc.latency, func(e engine, trace *strings.Builder) {
				trace.WriteString(sc.run(e))
			})
			if strings.Count(want, "\n") < 1000 {
				t.Fatalf("degenerate scenario: %d deliveries on the oracle", strings.Count(want, "\n"))
			}
		})
	}
}

func TestShardedHookReentryRedeliver(t *testing.T) {
	// The regression the wave design must hold: an Intercept hook calling
	// Redeliver while multi-event waves are in flight. Hooks run in the
	// coordinator pre-pass, so re-entry sequences immediately and
	// deterministically; the duplicated copies land in the instant's next
	// wave, bypass the hook, and are delivered by the shard workers.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	run := func() (string, Stats, int) {
		const n = 128 // one injected wave of n events: over parallelMinWave
		s := NewSharded(3, 4)
		recs := make([]*recorder, n)
		for i := 0; i < n; i++ {
			recs[i] = addRecorder(s, id.ID(i+1))
		}
		hookCalls := 0
		s.Intercept = func(node id.ID, m *msg.Message) (*msg.Message, bool) {
			hookCalls++
			if err := s.Redeliver(m.Sender, node, *m, 0); err != nil {
				t.Fatalf("Redeliver from hook: %v", err)
			}
			return nil, true
		}
		var b strings.Builder
		s.Tap = func(from, to id.ID, m msg.Message) {
			fmt.Fprintf(&b, "%d>%d:%d@%d\n", from, to, m.Round, s.Now())
		}
		for i := 0; i < n; i++ {
			src := id.ID(i + 1)
			dst := id.ID((i+1)%n + 1)
			if err := s.Inject(src, dst, msg.Message{Type: msg.Gossip, Sender: src, Round: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		s.Drain()
		return b.String(), s.Stats(), hookCalls
	}

	trace, st, hookCalls := run()
	if hookCalls != 128 {
		t.Errorf("hook ran %d times, want 128 (redeliveries must be exempt)", hookCalls)
	}
	if st.Delivered != 256 {
		t.Errorf("Delivered = %d, want 256 (originals + duplicates)", st.Delivered)
	}
	if st.Redelivered != 128 {
		t.Errorf("Redelivered = %d, want 128", st.Redelivered)
	}
	trace2, st2, _ := run()
	if trace != trace2 || st != st2 {
		t.Error("hook re-entry run is not deterministic under a fixed seed")
	}
}

func TestShardedParallelWavesUnderChurn(t *testing.T) {
	// The -race exerciser: large waves delivered by 8 shards' workers on a
	// multi-P runtime, with a fault hook active (coordinator pre-pass), churn
	// between drains (Fail/Revive with parked-timer re-scheduling), and
	// timers armed from inside wave deliveries.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	// TTL-bounded forwarders (ringProc) keep waves alive a few hops without
	// looping forever.
	const n = 512
	s := NewSharded(7, 8)
	for i := 0; i < n; i++ {
		next := id.ID((i+1+i%7)%n + 1)
		s.Add(id.ID(i+1), func(env peer.Env) peer.Process {
			return &ringProc{env: env, next: next}
		})
	}
	drops := 0
	s.Intercept = func(node id.ID, m *msg.Message) (*msg.Message, bool) {
		if m.Round%17 == 0 {
			drops++
			return nil, false
		}
		return nil, true
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < n; i++ {
			src := id.ID(i + 1)
			dst := id.ID((i+round+1)%n + 1)
			_ = s.Inject(src, dst, msg.Message{Type: msg.Gossip, Sender: src, Round: uint64(round*n + i), TTL: 3})
		}
		s.Drain()
		// Churn: kill a stripe, revive it next round.
		for i := round * 20; i < round*20+20; i++ {
			s.Fail(id.ID(i%n + 1))
		}
		s.Drain()
		for i := round * 20; i < round*20+20; i++ {
			s.Revive(id.ID(i%n + 1))
		}
	}
	s.Drain()
	if drops == 0 {
		t.Error("fault hook never fired")
	}
	if st := s.Stats(); st.Delivered == 0 || st.FaultDropped == 0 {
		t.Errorf("degenerate churn run: %+v", st)
	}
}

// watchProc watches every node a message to it lists — so its watches are
// taken mid-wave, on its shard's worker when the wave is parallel — and logs
// each OnPeerDown it hears as "watcher<victim" in a log the population
// shares (flushDowns runs the handlers on the coordinator only). A down for
// dropOn makes it unwatch dropTo, another pending victim.
type watchProc struct {
	env            peer.Env
	log            *[]string
	dropOn, dropTo id.ID
}

func (p *watchProc) OnCycle() {}

func (p *watchProc) Deliver(_ id.ID, m *msg.Message) {
	for _, v := range m.Nodes {
		p.env.Watch(v)
	}
}

func (p *watchProc) OnPeerDown(v id.ID) {
	*p.log = append(*p.log, fmt.Sprintf("%d<%d", p.env.Self(), v))
	if v == p.dropOn {
		p.env.Unwatch(p.dropTo)
	}
}

func TestShardedWatchNotifiesEachLiveWatcherOnce(t *testing.T) {
	// 256 nodes. The eight victims have odd table indices and the watchers
	// even ones, so at 2 and 4 shards every watcher lives on another shard
	// than its victims. Watches are taken by handlers in one 129-event wave,
	// which shard workers deliver at 2 and 4 shards; node 1 gets its
	// message twice and so watches its victims twice. Then node 3 drops one
	// watch, node 5 dies before the flush, and node 7's handler for its
	// first victim unwatches its second, still pending. The victims fail in
	// neither ascending nor descending order.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const n = 256
	var victims [8]id.ID
	for k := range victims {
		victims[k] = id.ID(2 + 32*k)
	}
	failOrder := []int{3, 6, 0, 5, 2, 7, 1, 4}
	targets := func(w id.ID) []id.ID {
		k := int(w/2) % 8
		return []id.ID{victims[k], victims[(k+3)%8]}
	}
	dropped := targets(3)[0]
	t7 := targets(7)
	if slices.Index(failOrder, int(t7[0]-2)/32) > slices.Index(failOrder, int(t7[1]-2)/32) {
		t.Fatal("scenario: node 7's first victim must fail before its second")
	}

	run := func(shards int) []string {
		var log []string
		s := NewSharded(11, shards)
		procs := make([]*watchProc, n+1)
		for i := 1; i <= n; i++ {
			s.Add(id.ID(i), func(env peer.Env) peer.Process {
				procs[i] = &watchProc{env: env, log: &log}
				return procs[i]
			})
		}
		procs[7].dropOn, procs[7].dropTo = t7[0], t7[1]
		for w := id.ID(1); w <= n; w += 2 {
			_ = s.Inject(w, w, msg.Message{Type: msg.Gossip, Nodes: targets(w)})
		}
		_ = s.Inject(1, 1, msg.Message{Type: msg.Gossip, Nodes: targets(1)})
		s.Drain()
		procs[3].env.Unwatch(dropped)
		s.Fail(5)
		for _, k := range failOrder {
			s.Fail(victims[k])
		}
		s.Drain()
		return log
	}

	var want []string
	for _, k := range failOrder {
		v := victims[k]
		for w := id.ID(1); w <= n; w += 2 {
			if !slices.Contains(targets(w), v) || w == 5 || (w == 3 && v == dropped) || (w == 7 && v == t7[1]) {
				continue
			}
			want = append(want, fmt.Sprintf("%d<%d", w, v))
		}
	}
	// Two watches per odd-id node, less node 5's two, node 3's dropped one
	// and node 7's second.
	if len(want) != n-4 {
		t.Fatalf("scenario: %d expected downs", len(want))
	}
	for _, shards := range []int{1, 2, 4} {
		if got := run(shards); !slices.Equal(got, want) {
			t.Errorf("shards=%d: %d downs, want %d\n got: %v\nwant: %v", shards, len(got), len(want), got, want)
		}
	}
}
