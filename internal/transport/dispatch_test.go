package transport

import (
	"testing"

	"hyparview/internal/msg"
)

// TestAgentFrameDispatchZeroAlloc pins the actor loop's per-frame path: a
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
