package transport

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hyparview/internal/id"
	"hyparview/internal/msg"
)

// TestPlumtreeRetentionHeapBound is the byte budget of plumtree's payload
// retention on real sockets: four agents move twice the seen window of
// 16 KiB messages, and what the process still holds afterwards is bounded by
// the per-node budget (2 MiB), not by rounds × payload — a count-bounded
// cache held 4 × 1024 × 16 KiB = 64 MiB here, parked slots included. Every
// wait is gated on delivery or neighbor-up events.
func TestPlumtreeRetentionHeapBound(t *testing.T) {
	const (
		agents      = 4
		payloadSize = 16 << 10
		warmup      = 32
		perNode     = 2 << 20 // plumtree's retention budget
		bound       = agents*perNode + 4<<20
	)
	rounds := 2*512 + 64
	if testing.Short() {
		rounds = 320 // 4 × 320 × 16 KiB = 20 MiB unbounded, still over the bound
	}

	g := newGate()
	var delivered atomic.Int64
	var linksUp [agents]atomic.Int64 // NeighborUp events per agent

	cluster := make([]*Agent, agents)
	for i := range cluster {
		a, err := NewAgent("127.0.0.1:0", AgentConfig{
			CyclePeriod: 100 * time.Millisecond,
			Broadcast:   BroadcastPlumtree,
			Seed:        uint64(i + 1),
			OnDeliver: func(p []byte) {
				if len(p) != payloadSize {
					t.Errorf("delivered %d bytes, want %d", len(p), payloadSize)
				}
				g.hit(&delivered)
			},
			OnNeighborUp: func(id.ID) { g.hit(&linksUp[i]) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		cluster[i] = a
	}
	for i := 1; i < agents; i++ {
		if err := cluster[i].Join(cluster[0].Addr()); err != nil {
			t.Fatal(err)
		}
		// A join raises the link at both ends; the contact's active view has
		// room for all three joiners, so none of these links is evicted.
		g.await(t, "joiner's link up", &linksUp[i], 1, time.Minute)
		g.await(t, "contact's links up", &linksUp[0], int64(i), time.Minute)
	}

	published := 0
	publish := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := cluster[0].Broadcast(make([]byte, payloadSize)); err != nil {
				t.Fatal(err)
			}
			published++
			g.await(t, "delivery", &delivered, int64(agents*published), time.Minute)
		}
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	publish(warmup) // connections dialed, buffers and pools at their working size
	before := heap()
	publish(rounds)
	grew := heap() - before
	if got := delivered.Load(); got != int64(agents*published) {
		t.Errorf("%d deliveries of %d rounds to %d agents: not exactly once", got, published, agents)
	}
	t.Logf("heap grew %.1f MiB over %d rounds of %d KiB (bound %d MiB)",
		float64(grew)/(1<<20), rounds, payloadSize>>10, bound>>20)
	if grew > bound {
		t.Errorf("heap grew %d bytes over %d rounds, bound %d: payload retention is not bounded in bytes",
			grew, rounds, bound)
	}
}

// TestOutsizeBuffersAreNotKept: a reusable frame buffer that grew past
// maxKeptBuffer is dropped after its one use, on both the send and the
// receive side, and the next frame still goes through.
func TestOutsizeBuffersAreNotKept(t *testing.T) {
	sc := getScratch()
	sc.frame = make([]byte, 0, maxKeptBuffer)
	putScratch(sc)
	if sc.frame == nil {
		t.Error("a frame buffer at the cap was dropped")
	}
	sc = getScratch()
	sc.frame = make([]byte, 0, maxKeptBuffer+1)
	putScratch(sc)
	if sc.frame != nil {
		t.Errorf("a %d-byte frame buffer went back to the pool", cap(sc.frame))
	}

	var ca, cb collector
	a := listen(t, &ca)
	b := listen(t, &cb)
	bID := a.Register(b.Addr())
	big := bytes.Repeat([]byte{0xA5}, 1<<20)
	for round, payload := range [][]byte{big, []byte("small"), big} {
		m := msg.Message{Type: msg.Gossip, Sender: a.Self(), Round: uint64(round), Payload: payload}
		if err := a.Send(bID, m); err != nil {
			t.Fatal(err)
		}
	}
	for round, got := range cb.waitMsgs(t, 3) {
		want := big
		if round == 1 {
			want = []byte("small")
		}
		if got.Round != uint64(round) || !bytes.Equal(got.Payload, want) {
			t.Errorf("frame %d arrived as round %d with %d payload bytes", round, got.Round, len(got.Payload))
		}
	}
}
