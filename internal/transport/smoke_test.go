package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"hyparview/internal/core"
)

func TestAgentSmoke(t *testing.T) {
	var delivered atomic.Int64
	mk := func() *Agent {
		a, err := NewAgent("127.0.0.1:0", AgentConfig{
			OnDeliver: func([]byte) { delivered.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	agents := make([]*Agent, 8)
	for i := range agents {
		agents[i] = mk()
	}
	defer func() {
		for _, a := range agents {
			_ = a.Close()
		}
	}()
	for i := 1; i < len(agents); i++ {
		if err := agents[i].Join(agents[0].Addr()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	if err := agents[3].Broadcast([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for delivered.Load() < 8 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := delivered.Load(); got != 8 {
		t.Fatalf("delivered=%d want 8", got)
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
