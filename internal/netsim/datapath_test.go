package netsim

// Pins for the engine's data path (shards.go): small event records
// over per-wave message arenas, sharing of shallowly identical sends, slot
// clearing, and the per-call worker lifecycle.

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/rng"
)

func TestEventRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(sevent{}); got != 48 {
		t.Errorf("sevent is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(outRec{}); got != 56 {
		t.Errorf("outRec is %d bytes, want 56", got)
	}
}

// TestSameMessageCoversEveryField walks msg.Message by reflection, so a field
// added to the wire format cannot be forgotten by sameMessage: two messages
// differing in any one field must not share an arena entry.
func TestSameMessageCoversEveryField(t *testing.T) {
	base := msg.Message{
		Nodes:     make([]id.ID, 4, 8),
		Entries:   make([]msg.Entry, 4, 8),
		Payload:   make([]byte, 4, 8),
		Directory: make([]msg.DirEntry, 4, 8),
	}
	same := base
	if !sameMessage(&base, &same) {
		t.Fatal("a struct copy is not the same message")
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		field := func(m *msg.Message) reflect.Value { return reflect.ValueOf(m).Elem().Field(i) }
		var values []reflect.Value
		switch f := field(&base); f.Kind() {
		case reflect.Bool:
			values = []reflect.Value{reflect.ValueOf(true)}
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			values = []reflect.Value{reflect.ValueOf(1).Convert(f.Type())}
		case reflect.Slice:
			values = []reflect.Value{
				f.Slice(0, 2),                     // same array, shorter
				f.Slice3(0, 4, 4),                 // same array and length, less capacity
				reflect.MakeSlice(f.Type(), 4, 8), // equal contents, another array
				reflect.Zero(f.Type()),            // nil
			}
		default:
			t.Fatalf("msg.Message.%s: kind %v not handled by this test", typ.Field(i).Name, f.Kind())
		}
		for k, v := range values {
			other := base
			field(&other).Set(v)
			if sameMessage(&base, &other) {
				t.Errorf("msg.Message.%s, value %d: sameMessage does not see the difference", typ.Field(i).Name, k)
			}
		}
	}
}

// stager sends from one node-owned scratch message, the way the broadcast
// layers do. On a trigger it stages a message and sends it three times from
// the same address: unchanged in between (same), or with a scalar and then a
// slice header rewritten in between.
type stager struct {
	env     peer.Env
	same    bool
	targets [3]id.ID
	scratch msg.Message
	list    [4]id.ID
	got     []msg.Message
}

func (p *stager) OnCycle() {}

func (p *stager) Deliver(_ id.ID, m *msg.Message) {
	if m.Type != msg.Join { // not the trigger: something a stager sent
		p.got = append(p.got, *m)
		return
	}
	send := p.env.(peer.RefSender).SendRef
	p.scratch = msg.Message{Type: msg.Gossip, Sender: p.env.Self(), Round: m.Round, TTL: 9, Nodes: p.list[:4]}
	_ = send(p.targets[0], &p.scratch)
	if !p.same {
		p.scratch.TTL--
	}
	_ = send(p.targets[1], &p.scratch)
	if !p.same {
		p.scratch.Nodes = p.scratch.Nodes[:2]
	}
	_ = send(p.targets[2], &p.scratch)
}

// stagerRun triggers every one of n stagers once and returns the nodes, the
// engine and the Tap trace.
func stagerRun(shards, n int, same bool) ([]*stager, *Sim, string) {
	s := NewSharded(5, shards)
	nodes := make([]*stager, n)
	for i := range nodes {
		s.Add(id.ID(i+1), func(env peer.Env) peer.Process {
			nodes[i] = &stager{env: env, same: same}
			for k := range nodes[i].targets {
				nodes[i].targets[k] = id.ID((i+k+1)%n + 1)
			}
			return nodes[i]
		})
	}
	var b strings.Builder
	s.Tap = func(from, to id.ID, m msg.Message) {
		fmt.Fprintf(&b, "%d>%d:%d:%d:%d:%d@%d\n", from, to, m.Type, m.Round, m.TTL, len(m.Nodes), s.Now())
	}
	for i := range nodes {
		_ = s.Inject(id.ID(i+1), id.ID(i+1), msg.Message{Type: msg.Join, Round: uint64(i)})
	}
	s.Drain()
	return nodes, s, b.String()
}

// TestRestagedScratchIsNotShared is the trap a pointer-keyed dedup falls into:
// three different messages sent from one address. Every receiver must observe
// what was sent to it, identically at every shard count.
func TestRestagedScratchIsNotShared(t *testing.T) {
	const n = 24
	ref := ""
	for _, shards := range []int{1, 2, 4, 8} {
		nodes, _, trace := stagerRun(shards, n, false)
		for i, p := range nodes {
			// Node i is target k of node i-k-1, which sent it (TTL, len(Nodes))
			// = (9,4), (8,4), (8,2) for k = 0, 1, 2.
			want := map[id.ID][2]int{
				id.ID((i-1+n)%n + 1): {9, 4},
				id.ID((i-2+n)%n + 1): {8, 4},
				id.ID((i-3+n)%n + 1): {8, 2},
			}
			if len(p.got) != 3 {
				t.Fatalf("shards=%d: node %d received %d messages, want 3", shards, i+1, len(p.got))
			}
			for _, m := range p.got {
				if got := [2]int{int(m.TTL), len(m.Nodes)}; got != want[m.Sender] {
					t.Errorf("shards=%d: node %d got (TTL, len(Nodes)) = %v from %v, was sent %v",
						shards, i+1, got, m.Sender, want[m.Sender])
				}
			}
		}
		if shards == 1 {
			ref = trace
		} else if trace != ref {
			t.Errorf("shards=%d: trace diverged from the one-shard run", shards)
		}
	}
}

// TestIdenticalSendsShareOneArenaEntry pins the sharing itself: a handler's k
// sends of one unchanged message occupy one arena entry, k restaged sends
// occupy k. Node 1 is the only stager on its shard (8 shards, 8 nodes), and
// the arena its trigger wave wrote is still intact after the Drain: only the
// other arena was reset since.
func TestIdenticalSendsShareOneArenaEntry(t *testing.T) {
	for _, tc := range []struct {
		same bool
		want int
	}{{true, 1}, {false, 3}} {
		_, s, _ := stagerRun(8, 8, tc.same)
		sh := &s.shards[s.ShardOf(1)]
		if got := sh.arenas[0].n + sh.arenas[1].n; got != tc.want {
			t.Errorf("same=%v: 3 sends occupy %d arena entries, want %d", tc.same, got, tc.want)
		}
		if got := len(s.shards[s.ShardOf(2)].cur) + s.Pending(); got != 0 {
			t.Errorf("same=%v: %d events left after Drain", tc.same, got)
		}
	}
}

// burster answers a trigger with fan sends of distinct messages that all
// carry the trigger's payload: fan arena entries on its shard, fan hold slots
// when a latency model is installed.
type burster struct {
	env peer.Env
	fan int
}

func (p *burster) OnCycle() {}

func (p *burster) Deliver(_ id.ID, m *msg.Message) {
	if m.Type != msg.Join {
		return
	}
	for k := 0; k < p.fan; k++ {
		_ = p.env.Send(id.ID(k%8+2), msg.Message{Type: msg.Gossip, Round: uint64(k), Payload: m.Payload})
	}
}

// TestEngineDoesNotPinPayloads: arena reset and hold-slab release clear their
// slots. A burst of 600 payload-carrying messages is followed by traffic that
// reuses only a few slots; were slots merely overwritten on reuse, the other
// ones would keep the payload alive for the life of the Sim.
func TestEngineDoesNotPinPayloads(t *testing.T) {
	for _, latency := range []bool{false, true} {
		s := NewSharded(9, 2)
		for i := 0; i < 9; i++ {
			s.Add(id.ID(i+1), func(env peer.Env) peer.Process { return &burster{env: env, fan: 600} })
		}
		if latency { // every send takes a hold slot instead of riding the arena
			s.Latency = func(id.ID, id.ID, *rng.Rand) uint64 { return 3 }
		}
		payload := make([]byte, 1<<20)
		freed := make(chan struct{})
		runtime.SetFinalizer(&payload[0], func(*byte) { close(freed) })
		_ = s.Inject(1, 1, msg.Message{Type: msg.Join, Payload: payload})
		s.Drain()
		payload = nil
		for i := 0; i < 2; i++ { // two further waves each: the arenas turn over
			_ = s.Inject(2, 3, msg.Message{Type: msg.Gossip})
			s.Drain()
			_ = s.Inject(3, 2, msg.Message{Type: msg.Gossip})
			s.Drain()
		}
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(5 * time.Second):
			t.Errorf("latency=%v: the engine still references a payload four waves after its delivery", latency)
		}
		runtime.KeepAlive(s)
	}
}

// goroutinesSettleAt waits for the goroutine count to come back to want: a
// joined worker has signalled its exit but may not have left the scheduler's
// books yet.
func goroutinesSettleAt(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// settledGoroutines returns the goroutine count once it has held still for
// 50 ms: the baseline of a test that counts goroutines must not include a
// worker an earlier test joined that is still on its way out.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 50; still++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		}
	}
	return n
}

// TestShardWorkersLiveOnlyInsideACall pins the worker lifecycle: started at
// the first parallel wave of a Drain or RunFor, alive until the call returns,
// gone afterwards, and never started by a call whose waves all stay under
// parallelMinWave.
func TestShardWorkersLiveOnlyInsideACall(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const n, shards = 256, 4
	s := buildRingSharded(n, shards)
	base := settledGoroutines()
	peak := 0
	s.Tap = func(id.ID, id.ID, msg.Message) { // runs on the coordinator, before each wave
		peak = max(peak, runtime.NumGoroutine())
	}
	inject := func(k int) {
		for i := 0; i < k; i++ {
			_ = s.Inject(id.ID(i+1), id.ID(i+2), msg.Message{Type: msg.Gossip, TTL: 3})
		}
	}
	for _, step := range []struct {
		name    string
		events  int
		run     func()
		workers int
	}{
		{"Drain", n - 1, func() { s.Drain() }, shards - 1},
		{"RunFor", n - 1, func() { s.RunFor(1) }, shards - 1},
		{"small Drain", parallelMinWave / 2, func() { s.Drain() }, 0},
	} {
		peak = 0
		inject(step.events)
		step.run()
		if peak != base+step.workers {
			t.Errorf("%s: %d goroutines at the peak of the call, want %d (baseline %d + %d workers)",
				step.name, peak, base+step.workers, base, step.workers)
		}
		if got := goroutinesSettleAt(base); got != base {
			t.Errorf("%s: %d goroutines after the call, want the baseline %d", step.name, got, base)
		}
	}
}

// cycler is a ring member whose OnCycle starts a two-hop message, the shape of
// a membership cycle: RunCycle and cluster construction issue one Drain per
// node, each over a handful of events. Deliver samples the goroutine count.
type cycler struct {
	env  peer.Env
	next id.ID
	peak *int
}

func (p *cycler) OnCycle() { _ = p.env.Send(p.next, msg.Message{Type: msg.Shuffle, TTL: 1}) }

func (p *cycler) Deliver(_ id.ID, m *msg.Message) {
	*p.peak = max(*p.peak, runtime.NumGoroutine())
	if m.TTL > 0 {
		fwd := *m
		fwd.TTL--
		_ = p.env.Send(p.next, fwd)
	}
}

// TestNearEmptyDrainIsFree pins the path benchmark set-up rides on (10,000
// joins and 500,000 cycle drains before a 10k-node measurement starts): an
// empty Drain or RunFor(0), and a warm OnCycle+Drain over a few events — the
// body of RunCycle — allocate nothing, start no worker, and leave every
// shard's vector pool no larger than they found it. Run at -cpu 1,2,4 in CI.
func TestNearEmptyDrainIsFree(t *testing.T) {
	for _, shards := range []int{1, 2} {
		const n = 300
		peak := 0
		s := NewSharded(3, shards)
		for i := 0; i < n; i++ {
			next := id.ID((i+1)%n + 1)
			s.Add(id.ID(i+1), func(env peer.Env) peer.Process { return &cycler{env: env, next: next, peak: &peak} })
		}
		s.RunCycles(2) // warm the pools, arenas and hold slab
		pooled := func() (total int) {
			for i := range s.shards {
				total += len(s.shards[i].pool)
			}
			return total
		}
		pool, base := pooled(), settledGoroutines()
		peak = 0
		node := 0
		for _, step := range []struct {
			name string
			call func()
		}{
			{"empty Drain", func() { s.Drain() }},
			{"RunFor(0)", func() { s.RunFor(0) }},
			{"OnCycle+Drain", func() {
				node = (node + 1) % n
				s.nodes[node].proc.OnCycle()
				if got := s.Drain(); got != 2 {
					t.Fatalf("shards=%d: cycle drain made %d deliveries, want 2", shards, got)
				}
			}},
		} {
			if allocs := testing.AllocsPerRun(200, step.call); allocs != 0 {
				t.Errorf("shards=%d: %s allocates %.2f/op, want 0", shards, step.name, allocs)
			}
		}
		if peak != base {
			t.Errorf("shards=%d: %d goroutines inside a near-empty Drain, want the baseline %d", shards, peak, base)
		}
		if got := pooled(); got > pool {
			t.Errorf("shards=%d: vector pool grew from %d to %d over near-empty drains", shards, pool, got)
		}
	}
}
