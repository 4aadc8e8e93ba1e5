package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
)

// BenchmarkSendLoopback measures one framed message over a cached TCP
// connection on loopback (the transport's hot path).
func BenchmarkSendLoopback(b *testing.B) {
	var received atomic.Int64
	sink, err := Listen("127.0.0.1:0", Config{},
		func(id.ID, msg.Message) { received.Add(1) }, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	src, err := Listen("127.0.0.1:0", Config{}, func(id.ID, msg.Message) {}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()

	dst := src.Register(sink.Addr())
	m := msg.Message{Type: msg.Gossip, Sender: src.Self(), Round: 1, Payload: make([]byte, 256)}
	b.SetBytes(int64(msg.EncodedSize(m)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			err := src.Send(dst, m)
			if err == nil {
				break
			}
			// Send is asynchronous: a tight loop outruns the writer and the
			// bounded queue sheds. Overflow is the transport's backpressure
			// signal, so back off briefly and retry like a real caller.
			if !errors.Is(err, peer.ErrOverflow) {
				b.Fatal(err)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	b.StopTimer()
	// Drain so the next benchmark starts clean.
	deadline := time.Now().Add(10 * time.Second)
	for received.Load() < int64(b.N) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// benchAgentBroadcast measures an end-to-end broadcast across 8 real TCP
// agents on loopback under the given broadcast layer: one iteration is one
// message fully delivered at every agent.
func benchAgentBroadcast(b *testing.B, mode BroadcastMode) {
	const n = 8
	var delivered atomic.Int64
	agents := make([]*Agent, 0, n)
	defer func() {
		for _, a := range agents {
			_ = a.Close()
		}
	}()
	for i := 0; i < n; i++ {
		a, err := NewAgent("127.0.0.1:0", AgentConfig{
			Broadcast:     mode,
			PlumtreeTimer: 50 * time.Millisecond,
			OnDeliver:     func([]byte) { delivered.Add(1) },
		})
		if err != nil {
			b.Fatal(err)
		}
		agents = append(agents, a)
	}
	for _, a := range agents[1:] {
		if err := a.Join(agents[0].Addr()); err != nil {
			b.Fatal(err)
		}
	}
	// Wait for the overlay to settle.
	time.Sleep(300 * time.Millisecond)
	payload := make([]byte, 64)
	send := func(i int) {
		want := delivered.Load() + n
		if err := agents[i%n].Broadcast(payload); err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for delivered.Load() < want && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		if delivered.Load() < want {
			b.Fatalf("broadcast %d incomplete: %d/%d", i, delivered.Load()-(want-int64(n)), n)
		}
	}
	// Warm-up so Plumtree's pruning carves its spanning tree before the
	// measured iterations (a no-op for flood).
	for i := 0; i < 10; i++ {
		send(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(i)
	}
	b.StopTimer()
	var dup, del uint64
	for _, a := range agents {
		st := a.BroadcastStats()
		dup += st.Duplicates
		del += st.Delivered
	}
	b.ReportMetric(float64(dup)/float64(del), "dup/delivery")
}

// BenchmarkFloodBroadcast: per-message latency and redundancy of flooding
// every active-view link (the paper's own dissemination) on real sockets.
func BenchmarkFloodBroadcast(b *testing.B) { benchAgentBroadcast(b, BroadcastFlood) }

// BenchmarkPlumtreeBroadcast: the same workload over Plumtree broadcast
// trees — equal reliability, payload pushes on tree links only.
func BenchmarkPlumtreeBroadcast(b *testing.B) { benchAgentBroadcast(b, BroadcastPlumtree) }

// benchBroadcastThroughput pumps a pipelined flood-broadcast load through n
// loopback agents: up to `window` broadcasts are in flight at once, so the
// per-peer send queues refill while writer goroutines flush and the batched
// data plane actually engages. One iteration is one broadcast delivered at
// every agent; the reported msgs/sec is end-to-end goodput and
// frames/syscall is the write path's measured batching ratio (1.0 would
// mean every frame cost its own writev).
func benchBroadcastThroughput(b *testing.B, n int) {
	var delivered atomic.Int64
	agents := make([]*Agent, 0, n)
	defer func() {
		for _, a := range agents {
			_ = a.Close()
		}
	}()
	for i := 0; i < n; i++ {
		a, err := NewAgent("127.0.0.1:0", AgentConfig{
			OnDeliver: func([]byte) { delivered.Add(1) },
		})
		if err != nil {
			b.Fatal(err)
		}
		agents = append(agents, a)
	}
	for _, a := range agents[1:] {
		if err := a.Join(agents[0].Addr()); err != nil {
			b.Fatal(err)
		}
	}
	time.Sleep(time.Duration(n) * 40 * time.Millisecond) // let the overlay settle

	payload := make([]byte, 64)
	waitFor := func(target int64) {
		deadline := time.Now().Add(time.Duration(n) * 5 * time.Second)
		for delivered.Load() < target && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
		if got := delivered.Load(); got < target {
			b.Fatalf("stalled at %d/%d deliveries", got, target)
		}
	}
	// Warm up: full serial broadcasts open every connection and verify the
	// overlay disseminates before anything is measured.
	for i := 0; i < 5; i++ {
		if err := agents[i%n].Broadcast(payload); err != nil {
			b.Fatal(err)
		}
		waitFor(int64((i + 1) * n))
	}

	const window = 32 // in-flight broadcasts; keeps queues under sendQueue
	base := delivered.Load()
	var framesBefore, writesBefore uint64
	for _, a := range agents {
		st := a.TransportStats()
		framesBefore += st.FramesSent
		writesBefore += st.WriteCalls
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i >= window {
			waitFor(base + int64((i-window+1)*n))
		}
		if err := agents[i%n].Broadcast(payload); err != nil {
			b.Fatal(err)
		}
	}
	waitFor(base + int64(b.N*n))
	b.StopTimer()
	var frames, writes uint64
	for _, a := range agents {
		st := a.TransportStats()
		frames += st.FramesSent
		writes += st.WriteCalls
	}
	if writes > writesBefore {
		b.ReportMetric(float64(frames-framesBefore)/float64(writes-writesBefore), "frames/syscall")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
}

// BenchmarkBroadcastThroughput: sustained flood-broadcast throughput at
// three overlay sizes on loopback — the end-user SLO view of the batched
// transport data plane (msgs/sec) next to its mechanism (frames/syscall).
func BenchmarkBroadcastThroughput(b *testing.B) {
	for _, n := range []int{8, 32, 64} {
		b.Run(fmt.Sprintf("agents=%d", n), func(b *testing.B) { benchBroadcastThroughput(b, n) })
	}
}

// BenchmarkRTTProbe measures one full PING→PONG round trip through an
// agent, dispatched under its lock: the unit cost of the X-BOT oracle's link
// measurements.
func BenchmarkRTTProbe(b *testing.B) {
	agent, err := NewAgent("127.0.0.1:0", AgentConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer agent.Close()

	pongs := make(chan uint64, 1)
	prober, err := Listen("127.0.0.1:0", Config{}, func(_ id.ID, m msg.Message) {
		if m.Type == msg.Pong {
			pongs <- m.Round
		}
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer prober.Close()
	dst := prober.Register(agent.Addr())

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nonce := uint64(i) + 1
		if err := prober.Send(dst, msg.Message{Type: msg.Ping, Sender: prober.Self(), Round: nonce}); err != nil {
			b.Fatal(err)
		}
		if got := <-pongs; got != nonce {
			b.Fatalf("pong nonce %d, want %d", got, nonce)
		}
	}
}
