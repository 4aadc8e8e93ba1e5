package sim

// The cross-shard conformance suite: the engine at 2 and 4 shards must report
// exactly the same aggregate results as at one shard (the default, what
// netsim.New builds) — reliability, RMR, hop counts, and every simulator
// counter — for
// the paper's scenarios at a scale where event interleaving inside a wave
// genuinely differs (10k nodes; 2k under -short). Trace-level equality is
// pinned separately in shard_test.go at small n; this suite pins the
// aggregate contract at population scale, for flood, Plumtree and the
// paper's kill-80% headline scenario.

import (
	"testing"

	"hyparview/internal/netsim"
)

// confSummary is everything a conformance run must reproduce exactly.
type confSummary struct {
	burst BurstStats
	stats netsim.Stats
	alive int
}

// confRun builds a cluster, stabilizes it, optionally kills 80% of the
// population, measures a burst and returns the aggregate summary.
func confRun(t *testing.T, opts Options, kill80 bool) confSummary {
	t.Helper()
	c := NewCluster(HyParView, opts)
	c.Stabilize(5)
	if kill80 {
		c.FailFraction(0.8)
	}
	return confSummary{
		burst: c.MeasureBurst(5),
		stats: c.Sim.Stats(),
		alive: c.Sim.AliveCount(),
	}
}

func confSweep(t *testing.T, opts Options, kill80 bool) {
	t.Helper()
	var ref confSummary
	for _, shards := range shardMatrix {
		o := opts
		o.Shards = shards
		got := confRun(t, o, kill80)
		if got.burst.MeanReliability <= 0 || got.stats.Delivered == 0 {
			t.Fatalf("shards=%d: degenerate run: %+v", shards, got.burst)
		}
		if shards == 1 {
			ref = got
			continue
		}
		if got != ref {
			t.Errorf("shards=%d diverged from the one-shard run:\n got %+v\nwant %+v",
				shards, got, ref)
		}
	}
}

func confN(t *testing.T) int {
	if testing.Short() {
		return 2_000
	}
	return 10_000
}

func TestConformanceFlood10k(t *testing.T) {
	confSweep(t, Options{N: confN(t), Seed: 21}, false)
}

func TestConformancePlumtree10k(t *testing.T) {
	confSweep(t, Options{N: confN(t), Seed: 22, Broadcast: BroadcastPlumtree}, false)
}

func TestConformanceKill80(t *testing.T) {
	// The paper's headline scenario: 80% of the population crashes at once
	// and the burst measures recovery. Failure notifications, parked timers
	// and dropped in-flight traffic must all aggregate identically.
	confSweep(t, Options{N: confN(t), Seed: 23, Broadcast: BroadcastPlumtree}, true)
}
