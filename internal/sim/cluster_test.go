package sim

import (
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/metrics"
	"hyparview/internal/netsim"
)

func TestClusterBuildAllProtocols(t *testing.T) {
	for _, p := range AllProtocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			c := NewCluster(p, Options{N: 300, Seed: 5})
			if got := c.Sim.AliveCount(); got != 300 {
				t.Fatalf("alive = %d, want 300", got)
			}
			snap := c.Snapshot()
			if !snap.IsConnected() {
				t.Errorf("%v overlay disconnected after joins", p)
			}
		})
	}
}

func TestStabilizedReliabilityIsHigh(t *testing.T) {
	tests := []struct {
		proto Protocol
		min   float64
	}{
		{HyParView, 1.0}, // deterministic flood on a connected symmetric overlay
		{Cyclon, 0.90},   // fanout-4 gossip cannot guarantee atomicity
		{CyclonAcked, 0.90},
		{Scamp, 0.85},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.proto.String(), func(t *testing.T) {
			c := NewCluster(tt.proto, Options{N: 500, Seed: 7})
			c.Stabilize(50)
			rels := c.BroadcastBurst(20)
			mean := metrics.Mean(rels)
			if mean < tt.min {
				t.Errorf("mean reliability = %.4f, want >= %.2f", mean, tt.min)
			}
		})
	}
}

func TestHyParViewSurvivesMassFailure(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 600, Seed: 11})
	c.Stabilize(50)
	killed := c.FailFraction(0.7)
	if killed != 420 {
		t.Fatalf("killed = %d, want 420", killed)
	}
	rels := c.BroadcastBurst(10)
	if last := rels[len(rels)-1]; last < 0.95 {
		t.Errorf("reliability after 70%% failures = %.4f, want >= 0.95 (paper Fig. 3)", last)
	}
}

func TestCyclonAckedHealsOverMessages(t *testing.T) {
	c := NewCluster(CyclonAcked, Options{N: 600, Seed: 13})
	c.Stabilize(50)
	c.FailFraction(0.5)
	rels := c.BroadcastBurst(60)
	early := metrics.Mean(rels[:10])
	late := metrics.Mean(rels[50:])
	if late < early {
		t.Errorf("CyclonAcked did not heal: early=%.3f late=%.3f", early, late)
	}
	if late < 0.85 {
		t.Errorf("late reliability = %.3f, want >= 0.85 (paper: recovers within ≈25 msgs)", late)
	}
}

func TestPlainCyclonStaysDegraded(t *testing.T) {
	// Without failure detection and without membership cycles, Cyclon's
	// views keep pointing at corpses: the average over the burst must stay
	// clearly below CyclonAcked's.
	acked := NewCluster(CyclonAcked, Options{N: 600, Seed: 17})
	plain := NewCluster(Cyclon, Options{N: 600, Seed: 17})
	for _, c := range []*Cluster{acked, plain} {
		c.Stabilize(50)
		c.FailFraction(0.6)
	}
	ackedMean := metrics.Mean(acked.BroadcastBurst(60))
	plainMean := metrics.Mean(plain.BroadcastBurst(60))
	if plainMean >= ackedMean {
		t.Errorf("plain Cyclon (%.3f) not worse than CyclonAcked (%.3f)", plainMean, ackedMean)
	}
}

func TestFailFractionNeverKillsEveryone(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 50, Seed: 19})
	c.FailFraction(1.0)
	if c.Sim.AliveCount() < 1 {
		t.Error("FailFraction killed the whole population")
	}
	if c.FailFraction(0) != 0 {
		t.Error("FailFraction(0) killed someone")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		c := NewCluster(HyParView, Options{N: 300, Seed: 23})
		c.Stabilize(20)
		c.FailFraction(0.4)
		return c.BroadcastBurst(10)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverged at message %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAccuracyDropsThenRecovers(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 400, Seed: 29})
	c.Stabilize(50)
	if acc := c.Accuracy(); acc < 0.999 {
		t.Fatalf("pre-failure accuracy = %.4f, want 1.0", acc)
	}
	c.FailFraction(0.5)
	// Deliver TCP resets + reactive repairs.
	c.Sim.Drain()
	if acc := c.Accuracy(); acc < 0.99 {
		t.Errorf("post-repair accuracy = %.4f, want >= 0.99 (active views purge dead)", acc)
	}
}

func TestBroadcastDetailedHops(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 300, Seed: 31})
	c.Stabilize(30)
	rel, maxHops, avgHops := c.BroadcastDetailed()
	if rel != 1.0 {
		t.Errorf("reliability = %v, want 1", rel)
	}
	if maxHops < 2 || maxHops > 30 {
		t.Errorf("maxHops = %d, implausible", maxHops)
	}
	if avgHops <= 0 || avgHops > float64(maxHops) {
		t.Errorf("avgHops = %v vs maxHops %d", avgHops, maxHops)
	}
}

func TestProtocolString(t *testing.T) {
	names := map[Protocol]string{
		HyParView: "HyParView", Cyclon: "Cyclon",
		CyclonAcked: "CyclonAcked", Scamp: "Scamp", Protocol(9): "Protocol(9)",
	}
	for p, want := range names {
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.N != 1000 || o.Fanout != 4 || o.StabilizationCycles != 50 || o.Seed == 0 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestResetSeenBoundsMemory(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 50, Seed: 37})
	c.Stabilize(5)
	c.BroadcastBurst(5)
	c.ResetSeen()
	// After reset, a fresh broadcast must still work.
	if rel := c.Broadcast(); rel < 1.0 {
		t.Errorf("post-reset broadcast reliability = %v", rel)
	}
}

// TestSoakLongRun exercises a mid-size cluster through repeated
// failure/heal/churn waves — a long-haul stability check. Skipped with
// -short.
func TestSoakLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	c := NewCluster(HyParView, Options{N: 800, Seed: 101})
	c.Stabilize(50)
	nextID := 801
	for wave := 0; wave < 6; wave++ {
		c.FailFraction(0.3)
		// Replace the casualties with newcomers mid-flight.
		alive := c.Sim.AliveIDs()
		for j := 0; j < 100; j++ {
			contact := alive[c.Sim.Rand().Intn(len(alive))]
			c.addNode(id.ID(nextID), contact)
			nextID++
		}
		c.Sim.RunCycles(3)
		rels := c.BroadcastBurst(10)
		if mean := metrics.Mean(rels); mean < 0.97 {
			t.Fatalf("wave %d: mean reliability %.4f", wave, mean)
		}
		// Structural invariants hold cluster-wide across waves.
		snap := c.Snapshot()
		if lcc := snap.LargestComponentFraction(); lcc < 0.99 {
			t.Fatalf("wave %d: lcc %.4f", wave, lcc)
		}
		if sym := snap.SymmetryFraction(); sym < 0.98 {
			t.Fatalf("wave %d: symmetry %.4f", wave, sym)
		}
		c.ResetSeen()
		c.Tracker.Reset()
	}
}

func TestLatencyModelDoesNotAffectReliability(t *testing.T) {
	// The protocol is asynchronous: a jittered latency model changes
	// delivery timing, never outcomes like connectivity or reliability.
	c := NewCluster(HyParView, Options{
		N:    300,
		Seed: 41,
		// Draws 1 + r.Uint64n(100) per message.
		LatencyModel: &netsim.Uniform{Base: 1, Jitter: 99},
	})
	c.Stabilize(30)
	snap := c.Snapshot()
	if !snap.IsConnected() || snap.SymmetryFraction() < 0.999 {
		t.Fatalf("overlay degraded under latency: conn=%v sym=%.4f",
			snap.IsConnected(), snap.SymmetryFraction())
	}
	if rel := c.Broadcast(); rel != 1.0 {
		t.Errorf("reliability under latency = %v, want 1", rel)
	}
	if c.Sim.Now() == 0 {
		t.Error("virtual clock never advanced")
	}
	c.FailFraction(0.5)
	rels := c.BroadcastBurst(5)
	if rels[4] < 0.99 {
		t.Errorf("post-failure reliability under latency = %v", rels[4])
	}
}
