package netsim

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain is the package's goroutine-leak gate, after the one in
// internal/transport: the engine's shard workers live only inside a Drain or
// RunFor call, so after the whole test run no goroutine may still hold a
// netsim.(*shard) frame. Workers that were just told to exit settle in
// milliseconds; the gate retries briefly before failing with the stacks.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(5 * time.Second)
		leaked := shardGoroutines()
		for len(leaked) > 0 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond)
			leaked = shardGoroutines()
		}
		if len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d shard workers alive after all tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// shardGoroutines returns the stack of every live goroutine holding a shard
// method frame.
func shardGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var leaked []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "netsim.(*shard)") {
			leaked = append(leaked, g)
		}
	}
	return leaked
}
