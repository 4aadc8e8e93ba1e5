package sim

// The shard-determinism matrix: the wave/barrier engine must honor the
// repository's determinism contract at every shard count — same seed ⇒
// byte-identical event traces, timestamps included, whatever the count. The
// reference is shards == 1, the engine netsim.New builds, which package
// netsim in turn pins against a naive sorted-queue oracle (the canonical
// barrier merge reproduces the serial delivery order exactly; see
// internal/netsim/shards.go and oracle_test.go).

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hyparview/internal/faults"
	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/netsim"
)

// shardMatrix is the shard-count matrix every determinism test sweeps.
var shardMatrix = []int{1, 2, 4, 8}

func shardTraceOpts(opts Options, t *testing.T) {
	t.Helper()
	ref := ""
	for _, shards := range shardMatrix {
		o := opts
		o.Shards = shards
		a := clusterTrace(o, 5, 3)
		b := clusterTrace(o, 5, 3)
		if a == "" {
			t.Fatalf("shards=%d: empty event trace", shards)
		}
		if a != b {
			t.Fatalf("shards=%d: same seed produced diverging event traces", shards)
		}
		if shards == 1 {
			ref = a
			continue
		}
		if a != ref {
			t.Fatalf("shards=%d: trace diverged from the one-shard run", shards)
		}
	}
}

func TestShardTraceMatrixFIFO(t *testing.T) {
	shardTraceOpts(Options{N: 120, Seed: 7, Broadcast: BroadcastPlumtree}, t)
}

func TestShardTraceMatrixFlood(t *testing.T) {
	shardTraceOpts(Options{N: 100, Seed: 11}, t)
}

func TestShardTraceMatrixPeriodic(t *testing.T) {
	// Scheduler-driven shuffles exercise the periodic heaps and the RunFor
	// wave loop (due rounds spliced into waves by (at, seq)).
	shardTraceOpts(Options{N: 100, Seed: 5, ShuffleInterval: 20, Broadcast: BroadcastPlumtree}, t)
}

func TestShardTraceMatrixLatency(t *testing.T) {
	// Per-link delays scatter traffic across future time buckets; the merge
	// must draw every delay from the root stream in canonical order.
	shardTraceOpts(Options{
		N: 100, Seed: 9, Broadcast: BroadcastPlumtree,
		LatencyModel: netsim.NewEuclidean(9),
	}, t)
}

func TestShardTraceMatrixUnderFailures(t *testing.T) {
	// Failure notifications (OnPeerDown), parked timers and revives must all
	// sequence identically across shard counts.
	ref := ""
	for _, shards := range shardMatrix {
		trace := func() string {
			c := NewCluster(HyParView, Options{
				N: 150, Seed: 13, Shards: shards, Broadcast: BroadcastPlumtree,
			})
			var b strings.Builder
			c.Sim.Tap = func(from, to id.ID, m msg.Message) {
				fmt.Fprintf(&b, "%d>%d:%d:%d@%d\n", from, to, m.Type, m.Round, c.Sim.Now())
			}
			c.Stabilize(5)
			c.FailFraction(0.3)
			c.MeasureBurst(2)
			victims := 0
			for _, nodeID := range c.IDs() {
				if !c.Sim.Alive(nodeID) {
					c.Sim.Revive(nodeID)
					victims++
					if victims == 10 {
						break
					}
				}
			}
			c.Stabilize(3)
			c.MeasureBurst(2)
			return b.String()
		}
		a, b := trace(), trace()
		if a == "" {
			t.Fatalf("shards=%d: empty event trace", shards)
		}
		if a != b {
			t.Fatalf("shards=%d: failure/revive run is not deterministic", shards)
		}
		if shards == 1 {
			ref = a
		} else if a != ref {
			t.Fatalf("shards=%d: failure/revive trace diverged from the one-shard run", shards)
		}
	}
}

// TestShardedClusterRaceSmoke is the full-stack companion to netsim's
// parallel-wave exerciser: the whole HyParView + Plumtree stack on the
// sharded engine with parallel waves genuinely enabled (GOMAXPROCS raised
// before construction), under fault injection and mass failure. It exists
// for the CI -race step: the per-shard tracker parts, the hook pre-pass, the
// shard workers and the barrier merge all get exercised with real
// concurrency.
func TestShardedClusterRaceSmoke(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	c := NewCluster(HyParView, Options{N: 600, Seed: 31, Shards: 4, Broadcast: BroadcastPlumtree})
	inj := c.InstallFaults(&faults.Injector{
		Default: faults.Profile{Drop: 0.02, Duplicate: 0.02, DupDelay: 2, Delay: 0.05, MaxDelay: 3},
	})
	c.Stabilize(5)
	if st := c.MeasureBurst(3); st.MeanReliability < 0.95 {
		t.Errorf("pre-failure reliability = %v, want >= 0.95 under light faults", st.MeanReliability)
	}
	c.FailFraction(0.5)
	c.MeasureBurst(3)
	if inj.Stats().Inspected == 0 {
		t.Error("injector idle during race smoke")
	}
}
