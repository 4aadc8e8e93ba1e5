package netsim

// Event-engine throughput benchmarks. A ring of forwarder processes bounces
// TTL-bounded messages through the engine, isolating its own cost — wave
// formation, arena writes, the output merge, node-table dispatch — from any
// protocol logic. BENCH_sim.json records the headline events/sec at n=10k and n=100k;
// run with:
//
//	go test ./internal/netsim/ -run '^$' -bench BenchmarkEngine -benchtime 20x

import (
	"fmt"
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
)

// ringProc forwards every delivery to the next ring member until the TTL
// dies.
type ringProc struct {
	env  peer.Env
	next id.ID
}

func (p *ringProc) Deliver(_ id.ID, m *msg.Message) {
	if m.TTL == 0 {
		return
	}
	fwd := *m
	fwd.TTL--
	_ = p.env.Send(p.next, fwd)
}

func (p *ringProc) OnCycle() {}

func buildRing(n int) *Sim { return buildRingSharded(n, 1) }

func buildRingSharded(n, shards int) *Sim {
	s := NewSharded(1, shards)
	for i := 0; i < n; i++ {
		nodeID := id.ID(i + 1)
		next := id.ID((i+1)%n + 1)
		s.Add(nodeID, func(env peer.Env) peer.Process {
			return &ringProc{env: env, next: next}
		})
	}
	return s
}

// benchEngine measures raw engine throughput: each iteration injects msgs
// TTL-hop messages spread around the ring and drains them, reporting
// deliveries per second.
func benchEngine(b *testing.B, n int) { benchEngineSharded(b, n, 1) }

func benchEngineSharded(b *testing.B, n, shards int) {
	const msgs, hops = 1024, 64
	s := buildRingSharded(n, shards)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < msgs; k++ {
			src := id.ID(k*(n/msgs+1)%n + 1)
			dst := id.ID(uint64(src)%uint64(n) + 1)
			_ = s.Inject(src, dst, msg.Message{Type: msg.Gossip, Round: uint64(k), TTL: hops})
		}
		s.Drain()
	}
	b.StopTimer()
	events := float64(b.N) * msgs * (hops + 1)
	b.ReportMetric(events/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkEngine10k(b *testing.B)  { benchEngine(b, 10_000) }
func BenchmarkEngine100k(b *testing.B) { benchEngine(b, 100_000) }

// BenchmarkEngine1M measures the engine at the million-node scale the ROADMAP
// targets, at one shard (what New builds) and at more. The shard counts are
// fixed (not GOMAXPROCS-derived) so recorded numbers are comparable across
// machines.
func BenchmarkEngine1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-node engine benchmark skipped in -short mode")
	}
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchEngineSharded(b, 1_000_000, shards)
		})
	}
}

// BenchmarkWaveHandoff measures what the shard workers cost per wave: a ring
// of parallelMinWave nodes on two shards, each relaying one message per wave,
// so every wave has exactly the smallest size that is run in parallel and the
// hand-off between the coordinator and the worker is a large share of it.
// One iteration is one Drain of 64 waves (workers started once, stopped
// once); ns/wave is the figure to compare. At GOMAXPROCS 1 the waves run
// serially and it measures the serial path instead.
func BenchmarkWaveHandoff(b *testing.B) {
	const waves = 64
	s := buildRingSharded(parallelMinWave, 2)
	injectWave(s, parallelMinWave, waves-1)
	s.Drain() // grow the arenas, vectors and hold slab outside the timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		injectWave(s, parallelMinWave, waves-1)
		s.Drain()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*waves), "ns/wave")
}
