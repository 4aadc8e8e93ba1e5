package faults

import (
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"hyparview/internal/rng"
)

// This file extends the message-level Intercept seam down to the wire: a
// seeded net.Conn wrapper (Conn) plus the Sockets controller that decides,
// per dial and per write, whether to inject a socket-level fault — dial
// failures, connection resets, partial writes, stalls, and a directed
// blackhole that models a peer whose process wedged while its kernel keeps
// ACKing. The transport mounts it through Config.Dial and Config.WrapConn.
//
// Determinism matches the package contract for TCP: all draws come from one
// mutex-guarded rng.Rand in arrival order, so fault mixes are seed-stable in
// distribution even though socket scheduling makes exact sequences racy.

// Dialer matches transport.Config.Dial: one dial attempt bounded by timeout.
type Dialer = func(addr string, timeout time.Duration) (net.Conn, error)

// ConnPlan is the socket-level fault mix. Probabilities are in [0, 1]; zero
// fields disable the corresponding fault.
type ConnPlan struct {
	// DialFail is the probability one dial attempt fails outright.
	DialFail float64
	// DialDelay stalls every dial attempt before it proceeds — enough to
	// hold a dial-race window open deterministically.
	DialDelay time.Duration
	// Reset is the per-write probability the connection is closed under the
	// writer mid-stream (the remote observes an abrupt close; the writer
	// gets a write-on-closed error).
	Reset float64
	// Partial is the per-write probability only a prefix of the buffer is
	// written before the connection errors — the torn-frame case a framed
	// protocol must treat as connection death.
	Partial float64
	// Stall is the per-write probability the write sleeps StallDelay first:
	// head-of-line latency injection without breakage.
	Stall      float64
	StallDelay time.Duration
}

// ConnStats counts socket-level faults injected.
type ConnStats struct {
	DialsFailed uint64 // dial attempts rejected
	Resets      uint64 // connections closed mid-write
	Partials    uint64 // torn writes
	Stalls      uint64 // delayed writes
	Blackholed  uint64 // reads/writes swallowed while the blackhole was on
}

// Sockets is the controller for socket-level fault injection: it owns the
// seeded random stream, the live fault plan, and the blackhole switch. Safe
// for concurrent use — wrapped connections from many goroutines draw from
// it under one mutex.
type Sockets struct {
	mu    sync.Mutex
	r     *rng.Rand
	plan  ConnPlan
	black bool
	// failDials and resetWrites are directed one-shot counters for
	// deterministic tests: each forces the fault on the next n operations
	// regardless of the probabilistic plan.
	failDials   int
	resetWrites int
	stats       ConnStats
}

// NewSockets builds a controller whose fault decisions draw from seed.
func NewSockets(seed uint64) *Sockets {
	return &Sockets{r: rng.New(seed)}
}

// SetPlan replaces the live fault plan (safe mid-run).
func (s *Sockets) SetPlan(p ConnPlan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plan = p
}

// FailNextDials forces the next n dial attempts to fail, ahead of any
// probabilistic decision — the deterministic handle for dial-failure tests.
func (s *Sockets) FailNextDials(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failDials = n
}

// ResetNextWrites forces a reset on the next n writes across all wrapped
// connections.
func (s *Sockets) ResetNextWrites(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resetWrites = n
}

// Blackhole flips the blackhole switch. While on, every wrapped connection
// goes silent: writes report success and vanish, reads consume and discard
// whatever arrives (the kernel keeps ACKing, so remote writers do not block
// — precisely the stalled-process failure TCP cannot surface on its own,
// and the case the RTT-probe suspicion machinery exists for). Turning the
// switch off restores traffic for subsequent calls; a read already parked
// inside the blackhole stays dark until its connection closes.
func (s *Sockets) Blackhole(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.black = on
}

// Stats snapshots the injected-fault counters.
func (s *Sockets) Stats() ConnStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Sockets) blackholed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.black
}

// dialVerdict decides one dial attempt; it returns the injected delay and
// whether the dial should fail.
func (s *Sockets) dialVerdict() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delay := s.plan.DialDelay
	if s.failDials > 0 {
		s.failDials--
		s.stats.DialsFailed++
		return delay, true
	}
	if s.plan.DialFail > 0 && s.r.Float64() < s.plan.DialFail {
		s.stats.DialsFailed++
		return delay, true
	}
	return delay, false
}

// writeFault is the verdict for one write.
type writeFault uint8

const (
	writeOK writeFault = iota
	writeReset
	writePartial
	writeStall
)

func (s *Sockets) writeVerdict() writeFault {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.resetWrites > 0 {
		s.resetWrites--
		s.stats.Resets++
		return writeReset
	}
	switch {
	case s.plan.Reset > 0 && s.r.Float64() < s.plan.Reset:
		s.stats.Resets++
		return writeReset
	case s.plan.Partial > 0 && s.r.Float64() < s.plan.Partial:
		s.stats.Partials++
		return writePartial
	case s.plan.Stall > 0 && s.r.Float64() < s.plan.Stall:
		s.stats.Stalls++
		return writeStall
	}
	return writeOK
}

func (s *Sockets) countBlackholed() {
	s.mu.Lock()
	s.stats.Blackholed++
	s.mu.Unlock()
}

// Dialer wraps base (nil for plain TCP) with dial-failure injection and the
// connection wrapper, for transport.Config.Dial.
func (s *Sockets) Dialer(base Dialer) Dialer {
	if base == nil {
		base = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		delay, fail := s.dialVerdict()
		if delay > 0 {
			time.Sleep(delay)
		}
		if fail {
			return nil, fmt.Errorf("faults: injected dial failure to %s", addr)
		}
		c, err := base(addr, timeout)
		if err != nil {
			return nil, err
		}
		return s.Wrap(c), nil
	}
}

// Wrap wraps one connection with this controller's fault injection, for
// transport.Config.WrapConn (the connections a transport accepts; Dialer
// wraps the ones it dials). Wrapping is idempotent.
func (s *Sockets) Wrap(c net.Conn) net.Conn {
	if fc, ok := c.(*Conn); ok && fc.s == s {
		return c
	}
	return &Conn{Conn: c, s: s, done: make(chan struct{})}
}

// Conn is a net.Conn with socket-level fault injection: the wire half of the
// fault seam (the Intercept hook is the message half). It forwards
// SyscallConn from the underlying connection so the transport's peek-based
// health check still sees the true kernel socket state — a blackhole hides
// in-flight bytes, not the socket itself.
type Conn struct {
	net.Conn
	s        *Sockets
	onceDone sync.Once
	done     chan struct{}
}

var _ syscall.Conn = (*Conn)(nil)

// errInjected is the error surfaced for injected resets and torn writes.
var errInjected = fmt.Errorf("faults: injected connection failure")

// Read passes through until the blackhole engages; a blackholed read
// consumes and discards arriving bytes forever (silence, not EOF), parking
// on connection close. A read already blocked inside the kernel when the
// switch flips delivers its data normally — in-flight bytes escape, exactly
// like a real partition cutting over mid-stream.
func (c *Conn) Read(p []byte) (int, error) {
	if !c.s.blackholed() {
		return c.Conn.Read(p)
	}
	c.s.countBlackholed()
	for {
		n, err := c.Conn.Read(p)
		_ = n
		if err != nil {
			// The remote may be gone, but a blackhole is silence: park until
			// this side deliberately closes the connection.
			<-c.done
			return 0, net.ErrClosed
		}
	}
}

// Write injects the per-write verdict: blackholed writes vanish
// successfully, resets close the connection under the writer, partial
// writes tear the frame, stalls add head-of-line latency.
func (c *Conn) Write(p []byte) (int, error) {
	if c.s.blackholed() {
		c.s.countBlackholed()
		return len(p), nil
	}
	switch c.s.writeVerdict() {
	case writeReset:
		_ = c.Conn.Close()
		return 0, errInjected
	case writePartial:
		if len(p) > 1 {
			_, _ = c.Conn.Write(p[:len(p)/2])
		}
		_ = c.Conn.Close()
		return 0, errInjected
	case writeStall:
		c.s.mu.Lock()
		d := c.s.plan.StallDelay
		c.s.mu.Unlock()
		if d > 0 {
			time.Sleep(d)
		}
	}
	return c.Conn.Write(p)
}

// Close releases any read parked in the blackhole along with the underlying
// connection.
func (c *Conn) Close() error {
	c.onceDone.Do(func() { close(c.done) })
	return c.Conn.Close()
}

// CloseWrite forwards the half-close so a graceful drain ends the stream
// the way it does on a bare TCP connection.
func (c *Conn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return fmt.Errorf("faults: underlying conn cannot half-close")
}

// SyscallConn forwards the raw descriptor so peek-based health checks see
// the true socket state.
func (c *Conn) SyscallConn() (syscall.RawConn, error) {
	if sc, ok := c.Conn.(syscall.Conn); ok {
		return sc.SyscallConn()
	}
	return nil, fmt.Errorf("faults: underlying conn exposes no raw descriptor")
}
