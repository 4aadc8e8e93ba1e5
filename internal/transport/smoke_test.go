package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"hyparview/internal/core"
	"hyparview/internal/id"
)

func TestAgentSmoke(t *testing.T) {
	const n = 8
	g := newGate()
	var delivered, viewChanges atomic.Int64
	var linksUp [n]atomic.Int64 // NeighborUp events per agent
	agents := make([]*Agent, n)
	for i := range agents {
		a, err := NewAgent("127.0.0.1:0", AgentConfig{
			OnDeliver:      func([]byte) { g.hit(&delivered) },
			OnNeighborUp:   func(id.ID) { linksUp[i].Add(1); g.hit(&viewChanges) },
			OnNeighborDown: func(id.ID, core.DownReason) { g.hit(&viewChanges) },
		})
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
	}
	defer func() {
		for _, a := range agents {
			_ = a.Close()
		}
	}()
	for i := 1; i < n; i++ {
		if err := agents[i].Join(agents[0].Addr()); err != nil {
			t.Fatal(err)
		}
		// A join raises the link at both ends.
		g.await(t, "joiner's link up", &linksUp[i], 1, 3*time.Second)
		g.await(t, "contact's links up", &linksUp[0], int64(i), 3*time.Second)
	}
	// The forward-join walks end in NEIGHBOR requests; once they land, the
	// views are symmetric and a flood from anywhere reaches everyone.
	if !g.wait(3*time.Second, func() bool { return settled(agents) }) {
		t.Fatal("active views never became symmetric and connected")
	}
	if err := agents[3].Broadcast([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	g.await(t, "deliveries", &delivered, n, 3*time.Second)
	if got := delivered.Load(); got != n {
		t.Fatalf("delivered=%d want %d", got, n)
	}
}

// TestNewAgentRejectsBadConfig: a configuration the protocol stack cannot be
// built from is an error from NewAgent, returned before the listener is
// bound — not a panic out of core.New with the accept loop already running
// (the package's TestMain would report that goroutine), and not a silent
// fall-back to flooding.
func TestNewAgentRejectsBadConfig(t *testing.T) {
	for name, cfg := range map[string]AgentConfig{
		"ShuffleKa above ActiveSize": {Core: core.Config{ShuffleKa: 9}},
		"unknown broadcast mode":     {Broadcast: BroadcastMode(7)},
	} {
		a, err := NewAgent("127.0.0.1:0", cfg)
		if err == nil {
			_ = a.Close()
			t.Errorf("%s: NewAgent succeeded, want an error", name)
		}
	}
}
