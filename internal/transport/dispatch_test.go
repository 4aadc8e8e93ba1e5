package transport

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/pubsub"
)

// TestAgentFrameDispatchZeroAlloc pins the agent's per-frame path: a
// network frame posted to the agent, as a reader goroutine posts it, and
// dispatched down the stack to a first delivery allocates nothing. The stack
// is handed a pointer to the frame's message; that pointer must not cost a
// heap allocation per frame.
func TestAgentFrameDispatchZeroAlloc(t *testing.T) {
	delivered := make(chan struct{}, 1)
	a, err := NewAgent("127.0.0.1:0", AgentConfig{OnDeliver: func([]byte) { delivered <- struct{}{} }})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	payload := make([]byte, 64)
	round := uint64(0)
	frame := func() {
		round++
		a.post(2, msg.Message{Type: msg.Gossip, Sender: 2, Round: round, Payload: payload})
		<-delivered
	}
	for i := 0; i < 300; i++ { // past the seen window, so eviction is warm too
		frame()
	}
	if allocs := testing.AllocsPerRun(200, frame); allocs != 0 {
		t.Errorf("dispatching a frame allocates %.2f/op, want 0", allocs)
	}
}

// TestAgentAPICallZeroAlloc pins the API path: a call takes the agent lock
// on its caller's goroutine, with no closure or channel per call, and an
// idle agent runs one goroutine, its accept loop.
func TestAgentAPICallZeroAlloc(t *testing.T) {
	if leaked := waitNoTransportGoroutines(5 * time.Second); len(leaked) > 0 {
		t.Fatalf("%d goroutines of earlier tests still running", len(leaked))
	}
	before := runtime.NumGoroutine()
	a, err := NewAgent("127.0.0.1:0", AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if added := runtime.NumGoroutine() - before; added != 1 {
		t.Errorf("an idle agent runs %d goroutines, want 1 (its accept loop)", added)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = a.Stats() }); allocs != 0 {
		t.Errorf("Stats allocates %.2f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = a.BroadcastStats() }); allocs != 0 {
		t.Errorf("BroadcastStats allocates %.2f/op, want 0", allocs)
	}
}

// TestAgentCallsRaceClose: API calls racing Close each return nil or
// ErrClosed, and none hangs; once Close has returned, every call that would
// change the agent returns ErrClosed.
func TestAgentCallsRaceClose(t *testing.T) {
	g := newGate()
	var linksUp atomic.Int64
	a, err := NewAgent("127.0.0.1:0", AgentConfig{
		CyclePeriod:  10 * time.Millisecond,
		Seed:         1,
		PubSub:       &pubsub.Config{},
		OnNeighborUp: func(id.ID) { g.hit(&linksUp) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewAgent("127.0.0.1:0", AgentConfig{CyclePeriod: 10 * time.Millisecond, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	g.await(t, "link up", &linksUp, 1, 3*time.Second)

	var calls atomic.Int64
	var closed atomic.Bool
	var wg sync.WaitGroup
	loop := func(name string, call func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				err := call()
				g.hit(&calls)
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("%s: %v, want nil or ErrClosed", name, err)
				}
				if err != nil || closed.Load() {
					return
				}
			}
		}()
	}
	loop("Broadcast", func() error { return a.Broadcast([]byte("x")) })
	loop("Cycle", a.Cycle)
	loop("ActiveView", func() error { _ = a.ActiveView(); return nil })
	loop("Stats", func() error { _ = a.Stats(); return nil })
	g.await(t, "calls before Close", &calls, 400, 3*time.Second)
	if err := a.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	closed.Store(true)
	returned := make(chan struct{})
	go func() { wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("an API call racing Close never returned")
	}

	for name, err := range map[string]error{
		"Join":      a.Join(b.Addr()),
		"Broadcast": a.Broadcast([]byte("x")),
		"Publish":   a.Publish(1, []byte("x")),
	} {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want ErrClosed", name, err)
		}
	}
}

// TestAgentReceivedPayloadFrameAllocs pins the receive path of a Plumtree
// payload frame on a warm agent, end to end over a socket: b broadcasts a
// 1 KiB payload to its one neighbour a, whose reader decodes the frame and
// dispatches it down a's stack to a first delivery. The payload is lent
// from the connection's read buffer and copied into a's retention arena,
// and the decoded message is the connection's own, not one per frame, so
// what a frame still costs, counted across both agents, is the decode of
// its address directory: the entry slice and the address string.
func TestAgentReceivedPayloadFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	g := newGate()
	var linksUp atomic.Int64
	delivered := make(chan struct{}, 1)
	mk := func(seed uint64, onDeliver func([]byte)) *Agent {
		a, err := NewAgent("127.0.0.1:0", AgentConfig{
			Broadcast:    BroadcastPlumtree,
			Seed:         seed,
			OnDeliver:    onDeliver,
			OnNeighborUp: func(id.ID) { g.hit(&linksUp) },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = a.Close() })
		return a
	}
	a := mk(1, func([]byte) { delivered <- struct{}{} })
	b := mk(2, nil)
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	g.await(t, "links up", &linksUp, 2, 10*time.Second)
	payload := make([]byte, 1<<10)
	frame := func() {
		if err := b.Broadcast(payload); err != nil {
			t.Fatal(err)
		}
		<-delivered
	}
	for i := 0; i < 600; i++ { // past the seen window: caches, arenas and pools warm
		frame()
	}
	if allocs := testing.AllocsPerRun(300, frame); allocs > 2 {
		t.Errorf("a received payload frame allocates %.2f/op, want at most 2 (the directory's entries and address)", allocs)
	}
}
