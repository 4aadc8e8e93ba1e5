package transport

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/plumtree"
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

// roundStamped is a payload of size bytes that only round carries.
func roundStamped(round uint64, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(round*131 + uint64(i)*7)
	}
	binary.BigEndian.PutUint64(p, round)
	return p
}

// TestGraftAfterArenaWrap holds Plumtree's retention ring to the lending
// receive path. A bare transport feeds an agent payloads of 24–60 KiB, each
// stamped with its round, over one connection, so every frame is decoded in
// place in the read buffer the frame before it used, and the ring copies
// each into its arena, which wraps every ≈50 rounds, at a different offset
// each lap. Then the transport GRAFTs every round, oldest first, several
// arena wraps after most of them arrived: each GRAFT is answered with
// exactly the bytes sent for its round, or counted in GraftsUnserved —
// never answered with another round's bytes — and the rounds within the
// arena's horizon (its budget less one payload) are answered.
func TestGraftAfterArenaWrap(t *testing.T) {
	const (
		budget  = 2 << 20 // plumtree's retention budget
		maxSize = 60 << 10
		rounds  = 200 // about four arena laps
	)
	size := func(round uint64) int { // under maxKeptBuffer: one read buffer serves every frame
		return maxSize - int(round*7919%(36<<10))
	}
	g := newGate()
	var delivered, answered atomic.Int64
	a, err := NewAgent("127.0.0.1:0", AgentConfig{
		Broadcast: BroadcastPlumtree,
		Seed:      1,
		OnDeliver: func(p []byte) {
			if r := binary.BigEndian.Uint64(p); len(p) != size(r) || !bytes.Equal(p, roundStamped(r, len(p))) {
				t.Errorf("delivered a damaged payload (%d bytes)", len(p))
			}
			g.hit(&delivered)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var mu sync.Mutex
	replies := make(map[uint64][][]byte)
	peerTr, err := Listen("127.0.0.1:0", Config{}, func(_ id.ID, m msg.Message) {
		if m.Type != msg.PlumtreeGossip {
			return
		}
		mu.Lock()
		replies[m.Round] = append(replies[m.Round], bytes.Clone(m.Payload)) // lent: copied to outlive the call
		mu.Unlock()
		g.hit(&answered)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peerTr.Close()
	agentID := peerTr.Register(a.Addr())

	for r := uint64(1); r <= rounds; r++ {
		m := msg.Message{Type: msg.PlumtreeGossip, Sender: peerTr.Self(), Round: r, Payload: roundStamped(r, size(r))}
		if err := peerTr.Send(agentID, m); err != nil {
			t.Fatal(err)
		}
		g.await(t, "delivery", &delivered, int64(r), time.Minute)
	}
	for r := uint64(1); r <= rounds; r++ {
		if err := peerTr.Send(agentID, msg.Message{Type: msg.PlumtreeGraft, Sender: peerTr.Self(), Round: r, Accept: true}); err != nil {
			t.Fatal(err)
		}
	}
	stats := func() plumtree.ControlStats {
		st, _ := a.PlumtreeStats()
		return st
	}
	deadline := time.Now().Add(time.Minute)
	for stats().GraftsRecvd < rounds {
		if time.Now().After(deadline) {
			t.Fatalf("the agent handled %d of %d grafts", stats().GraftsRecvd, rounds)
		}
		time.Sleep(5 * time.Millisecond)
	}
	unserved := stats().GraftsUnserved
	g.await(t, "graft answers", &answered, int64(rounds-unserved), time.Minute)

	mu.Lock()
	defer mu.Unlock()
	for r, got := range replies {
		if len(got) != 1 || !bytes.Equal(got[0], roundStamped(r, size(r))) {
			t.Errorf("round %d answered %d times, not with the bytes sent for it", r, len(got))
		}
	}
	if len(replies)+int(unserved) != rounds {
		t.Errorf("%d grafts answered and %d unserved, want %d in all", len(replies), unserved, rounds)
	}
	for r, newer := uint64(rounds), 0; newer+size(r) <= budget-maxSize; r-- {
		if replies[r] == nil {
			t.Errorf("round %d, %d bytes from the newest, went unserved: the arena's horizon is short", r, newer)
		}
		newer += size(r)
	}
	if replies[1] != nil {
		t.Error("round 1 was served after several arena laps")
	}
}
