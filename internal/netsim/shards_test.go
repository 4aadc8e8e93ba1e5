package netsim

// Engine-level pins for the sharded wave/barrier engine (shards.go):
// cross-shard-count trace equality on raw rings, hook re-entry (Redeliver
// from an Intercept hook) while waves run on the shard workers, and a
// parallel-wave exerciser that the CI -race step leans on. Tests that need
// the concurrent path raise GOMAXPROCS before construction: NewSharded
// captures it, and a single-P runtime would otherwise take the (identical in
// outcome) serial wave path.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
)

// ringTrace runs a TTL ring on the given engine and returns the Tap trace.
func ringTrace(shards, n, msgs, hops int) (string, Stats) {
	s := buildRingSharded(n, shards)
	var b strings.Builder
	s.Tap = func(from, to id.ID, m msg.Message) {
		fmt.Fprintf(&b, "%d>%d:%d@%d\n", from, to, m.Round, s.Now())
	}
	for k := 0; k < msgs; k++ {
		src := id.ID(k%n + 1)
		dst := id.ID(uint64(src)%uint64(n) + 1)
		_ = s.Inject(src, dst, msg.Message{Type: msg.Gossip, Round: uint64(k), TTL: uint8(hops)})
	}
	s.Drain()
	return b.String(), s.Stats()
}

func TestShardedMatchesLegacyEngineTrace(t *testing.T) {
	ref, refStats := ringTrace(1, 200, 96, 16)
	if ref == "" {
		t.Fatal("empty reference trace")
	}
	for _, shards := range []int{2, 4, 8} {
		got, gotStats := ringTrace(shards, 200, 96, 16)
		if got != ref {
			t.Errorf("shards=%d: trace diverged from the single-shard engine", shards)
		}
		if gotStats != refStats {
			t.Errorf("shards=%d: stats diverged: %+v vs %+v", shards, gotStats, refStats)
		}
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
