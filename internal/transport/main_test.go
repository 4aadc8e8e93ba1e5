package transport

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain is the package's goroutine-leak gate: every transport goroutine —
// accept loop, per-link writers (and their dials), readers, drain waiters —
// must be joined by Transport.Close, so after the whole test run no stack
// may still hold a frame from this package. A hand-rolled goleak: capture
// all stacks, keep the blocks that mention the package, retry briefly to let
// just-closed transports finish unwinding, then fail loudly with the
// offending stacks.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := waitNoTransportGoroutines(5 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d transport goroutines alive after all tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// waitNoTransportGoroutines polls until no goroutine stack references this
// package (transient unwinds settle in milliseconds) or the deadline passes,
// returning the surviving stacks.
func waitNoTransportGoroutines(timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	for {
		leaked := transportGoroutines()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// transportGoroutines returns the stack of every live goroutine holding a
// frame in this package, excluding the TestMain goroutine itself.
func transportGoroutines() []string {
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
		if !strings.Contains(g, "internal/transport.") {
			continue
		}
		if strings.Contains(g, "internal/transport.TestMain") ||
			strings.Contains(g, "transportGoroutines") {
			continue
		}
		leaked = append(leaked, g)
	}
	return leaked
}
