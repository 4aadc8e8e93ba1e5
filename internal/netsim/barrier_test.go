package netsim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
)

// injectWave queues one message with the given TTL to each of the first k
// members of a ring of ringProcs: the next Drain holds ttl+1 waves of k
// deliveries each.
func injectWave(s *Sim, k int, ttl uint8) {
	n := len(s.nodes)
	for j := 0; j < k; j++ {
		_ = s.Inject(id.ID(j+1), id.ID((j+1)%n+1), msg.Message{Type: msg.Gossip, TTL: ttl})
	}
}

// TestShardWorkerStartRace runs 1000 back-to-back Drains at 2 and 8 shards,
// two of every three holding exactly one parallel wave and the third staying
// serial. Every parallel one starts the workers right before it publishes
// its only wave, so a worker that loaded the barrier generation itself,
// instead of starting from the one captured before the publish, could find
// the wave already out, wait for the next one and leave the coordinator
// waiting for it: the deadline turns that hang into a failure. Run under
// -race -cpu 2,4 in CI, where 8 shards share 2 Ps.
func TestShardWorkerStartRace(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for _, shards := range []int{2, 8} {
		s := buildRingSharded(parallelMinWave, shards)
		done := make(chan error, 1)
		go func() {
			for i := 0; i < 1000; i++ {
				k := parallelMinWave
				if i%3 == 2 {
					k = 1 + i%(parallelMinWave-1)
				}
				injectWave(s, k, 0)
				if got := s.Drain(); got != k {
					done <- fmt.Errorf("drain %d made %d deliveries, want %d", i, got, k)
					return
				}
			}
			done <- nil
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("shards=%d: the Drains have not finished after 2 minutes: a worker missed its wave", shards)
		}
	}
}

// TestParallelWavesAllocateNothing pins the barrier's cost in memory: a Drain
// of 64 waves at exactly the parallel threshold — workers started, 64 waves
// published and joined, workers stopped — allocates nothing. Run at
// -cpu 1,2,4 in CI (serially at 1).
func TestParallelWavesAllocateNothing(t *testing.T) {
	s := buildRingSharded(parallelMinWave, 2)
	drain := func() {
		injectWave(s, parallelMinWave, 63)
		if got := s.Drain(); got != 64*parallelMinWave {
			t.Fatalf("drain made %d deliveries, want %d", got, 64*parallelMinWave)
		}
	}
	drain() // warm the arenas, vectors and hold slab
	if allocs := testing.AllocsPerRun(50, drain); allocs != 0 {
		t.Errorf("a Drain of parallel waves allocates %.2f/op, want 0", allocs)
	}
}

// panicker is a process whose handler fails.
type panicker struct{}

func (panicker) Deliver(id.ID, *msg.Message) { panic("handler failure") }
func (panicker) OnCycle()                    {}

// TestShardWorkersStopAfterAHandlerPanics: a handler that panics on the
// coordinator's own slice of a parallel wave unwinds through Drain, whose
// deferred stop stores the stop generation while the workers are still
// somewhere around the wave — some never saw it published at all. Every
// worker must still exit, and the panic must reach the caller.
func TestShardWorkersStopAfterAHandlerPanics(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const n, shards = 8 * parallelMinWave, 8
	for round := 0; round < 50; round++ {
		s := NewSharded(1, shards)
		for i := 0; i < n; i++ {
			next := id.ID((i+1)%n + 1)
			s.Add(id.ID(i+1), func(env peer.Env) peer.Process {
				if i%shards != 0 { // only shard 0's nodes fail: a panic on a worker ends the process
					return &ringProc{env: env, next: next}
				}
				return panicker{}
			})
		}
		base := settledGoroutines()
		injectWave(s, n, 0)
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			s.Drain()
		}()
		select {
		case r := <-done:
			if r == nil {
				t.Fatal("Drain returned normally; the handler's panic was lost")
			}
		case <-time.After(time.Minute):
			t.Fatalf("round %d: Drain did not unwind from a handler panic: a worker waits for a wave that never comes", round)
		}
		if got := goroutinesSettleAt(base); got != base {
			t.Fatalf("round %d: %d goroutines after the panic, want the baseline %d", round, got, base)
		}
	}
}
