package transport

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"hyparview/internal/core"
	"hyparview/internal/id"
	"hyparview/internal/pubsub"
)

// TestAgentPubSubSoak runs the pub/sub router over real loopback sockets:
// every agent subscribes per a fixed table, a hot topic is published in a
// rapid batched burst and cold topics trickle, and every subscriber must
// deliver every message exactly once (reliability 1.0) — the same Router the
// simulator's workload experiment drives, unmodified, on the TCP runtime.
func TestAgentPubSubSoak(t *testing.T) {
	const (
		n        = 6
		hotMsgs  = 40
		coldMsgs = 8
	)
	var agents []*Agent
	g := newGate()
	var fallback, viewChanges atomic.Int64
	var hotDelivered, coldDelivered atomic.Int64
	var linksUp [n]atomic.Int64 // NeighborUp events per agent
	t.Cleanup(func() {
		for _, a := range agents {
			_ = a.Close()
		}
	})
	for i := 0; i < n; i++ {
		a, err := NewAgent("127.0.0.1:0", AgentConfig{
			CyclePeriod: 100 * time.Millisecond,
			Seed:        uint64(i + 1),
			PubSub: &pubsub.Config{
				MaxBatch:      8,
				MaxBatchBytes: 1 << 12,
				FlushInterval: 10, // 10ms on the agent clock
			},
			OnDeliver:      func([]byte) { g.hit(&fallback) },
			OnNeighborUp:   func(id.ID) { linksUp[i].Add(1); g.hit(&viewChanges) },
			OnNeighborDown: func(id.ID, core.DownReason) { g.hit(&viewChanges) },
		})
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	for i := 1; i < n; i++ {
		if err := agents[i].Join(agents[0].Addr()); err != nil {
			t.Fatal(err)
		}
		// A join raises the link at both ends.
		g.await(t, "joiner's link up", &linksUp[i], 1, 3*time.Second)
		g.await(t, "contact's links up", &linksUp[0], int64(i), 3*time.Second)
	}
	if !g.wait(3*time.Second, func() bool { return settled(agents) }) {
		t.Fatal("active views never became symmetric and connected")
	}

	// Subscription table: the hot topic everywhere, the cold topic on half
	// the agents.
	const hotTopic, coldTopic = 1, 2
	coldSubs := 0
	for i, a := range agents {
		if err := a.Subscribe(hotTopic, func(_ uint32, payload []byte, _ int) {
			if len(payload) > 0 {
				g.hit(&hotDelivered)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			coldSubs++
			if err := a.Subscribe(coldTopic, func(uint32, []byte, int) {
				g.hit(&coldDelivered)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Hot burst from one producer (the batching regime), cold trickle from
	// another, plus one plain broadcast through the same wrapped stack.
	for i := 0; i < hotMsgs; i++ {
		if err := agents[0].Publish(hotTopic, []byte(fmt.Sprintf("hot-%d", i))); err != nil {
			t.Fatalf("publish hot %d: %v", i, err)
		}
	}
	for i := 0; i < coldMsgs; i++ {
		if err := agents[1].Publish(coldTopic, []byte(fmt.Sprintf("cold-%d", i))); err != nil {
			t.Fatalf("publish cold %d: %v", i, err)
		}
		// A trickle: each cold message reaches every subscriber before the
		// next is published, so it leaves in a batch of its own.
		g.await(t, "cold deliveries", &coldDelivered, int64((i+1)*coldSubs), 10*time.Second)
	}
	if err := agents[2].Broadcast([]byte("plain")); err != nil {
		t.Fatal(err)
	}

	wantHot := int64(hotMsgs * n)
	wantCold := int64(coldMsgs * coldSubs)
	g.wait(10*time.Second, func() bool {
		return hotDelivered.Load() >= wantHot && coldDelivered.Load() >= wantCold && fallback.Load() >= int64(n)
	})
	if got := hotDelivered.Load(); got != wantHot {
		t.Errorf("hot topic: %d deliveries, want %d (reliability 1.0)", got, wantHot)
	}
	if got := coldDelivered.Load(); got != wantCold {
		t.Errorf("cold topic: %d deliveries, want %d (reliability 1.0)", got, wantCold)
	}
	if got := fallback.Load(); got != int64(n) {
		t.Errorf("plain broadcast reached %d OnDeliver callbacks, want %d", got, n)
	}

	// The hot burst must actually have batched: fewer frames than publishes.
	st, ok := agents[0].PubSubStats()
	if !ok {
		t.Fatal("PubSubStats not available on a PubSub-configured agent")
	}
	if st.Published != hotMsgs {
		t.Errorf("producer published %d, want %d", st.Published, hotMsgs)
	}
	if st.Frames >= st.Published {
		t.Errorf("producer sent %d frames for %d publishes, batching never engaged",
			st.Frames, st.Published)
	}
}

// TestAgentPubSubDisabled pins the API contract on agents built without
// AgentConfig.PubSub.
func TestAgentPubSubDisabled(t *testing.T) {
	a, err := NewAgent("127.0.0.1:0", AgentConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Publish(1, []byte("x")); err != ErrNoPubSub {
		t.Errorf("Publish without PubSub: err = %v, want ErrNoPubSub", err)
	}
	if err := a.Subscribe(1, func(uint32, []byte, int) {}); err != ErrNoPubSub {
		t.Errorf("Subscribe without PubSub: err = %v, want ErrNoPubSub", err)
	}
	if _, ok := a.PubSubStats(); ok {
		t.Error("PubSubStats ok = true without PubSub")
	}
}
