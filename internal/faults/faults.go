// Package faults composes adversarial fault injection over the Intercept
// seam exposed by both runtimes (netsim.Sim.Intercept, transport's
// Config.Intercept): one hook signature drives drop, delay, duplicate,
// reorder, payload-tamper, SHUFFLE-lie and round-replay faults in the
// simulator and on real sockets.
//
// Determinism: every fault decision draws from a single rng.Rand owned by
// the injector, consumed in delivery order. In the simulator deliveries are
// totally ordered, so a run with the same seed makes the same draws and the
// contract "same seed ⇒ byte-identical traces" holds with injection enabled.
// Over TCP (where delivery order is racy by nature) wrap the hook with
// Synchronized; injection is then safe, just not reproducible — exactly as
// repeated wall-clock runs already are.
//
// Ownership: hooks operate on a private copy of the message struct handed in
// by the runtime. A tamperer must never mutate the slice fields in place —
// they are frozen, shared copy-on-write with every other copy of the fan-out
// — so tamperers build fresh slices (or msg.Clone) and return a replacement
// struct. Duplicates and delayed copies may share the original's slices:
// redelivery only re-reads them, and the simulator's slices are frozen for
// the whole run. The TCP transport lends them instead: a received payload
// lies in the connection's read buffer, valid until the hook and the
// dispatch after it return, so a hook that records messages there (a
// Replayer, say) records m.Clone().
package faults

import (
	"sync"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/rng"
)

// Hook is the fault-injection seam shared by both runtimes: it observes one
// message about to be delivered to node. Returning (nil, true) delivers the
// original, (repl, true) delivers the replacement, (_, false) suppresses the
// delivery. *m and its slices are valid until the delivery's dispatch
// returns; on the TCP transport a hook that keeps a message past that keeps
// m.Clone() (see the package doc on ownership).
type Hook = func(node id.ID, m *msg.Message) (*msg.Message, bool)

// Redeliver re-injects a message into the runtime for delivery to `to` after
// delay ticks, bypassing the hook (netsim.Sim.Redeliver provides it in the
// simulator). Fault artifacts — duplicates, delayed copies, replays — re-enter
// through it so they are never re-intercepted.
type Redeliver = func(from, to id.ID, m msg.Message, delay uint64)

// Tamper mutates one message, Byzantine-style. It returns a replacement
// message (whose slices it owns) or nil to leave the original untouched.
type Tamper = func(node id.ID, m *msg.Message) *msg.Message

// Profile is one link's (or the default) fault mix. Probabilities are in
// [0, 1]; zero fields disable the corresponding fault.
type Profile struct {
	// Drop is the probability a delivery is silently lost.
	Drop float64
	// Duplicate is the probability an extra copy is redelivered, after a
	// uniform extra delay in [0, DupDelay] ticks.
	Duplicate float64
	DupDelay  uint64
	// Delay is the probability the delivery is deferred by a uniform delay in
	// [1, 1+MaxDelay] ticks instead of arriving now — which also reorders it
	// behind traffic scheduled in between.
	Delay    float64
	MaxDelay uint64
}

// Stats counts the faults an Injector has applied.
type Stats struct {
	Inspected  uint64 // messages the hook observed
	Dropped    uint64 // deliveries suppressed
	Duplicated uint64 // extra copies scheduled
	Delayed    uint64 // deliveries deferred (suppressed now, redelivered later)
	Tampered   uint64 // messages replaced by the Tamper function
}

// Injector is a composable fault hook: per-link (or default) drop, duplicate
// and delay probabilities plus an optional Byzantine tamperer, all drawing
// from one deterministic random stream. The zero value is a no-op hook; an
// Injector is not safe for concurrent use (see Synchronized).
type Injector struct {
	// Rand drives every fault decision. Required for any non-zero Profile;
	// seed it from the run's seed to keep injected runs deterministic.
	Rand *rng.Rand
	// Redeliver re-injects duplicates and delayed copies. When nil, the
	// Duplicate and Delay faults are disabled (Drop and Tamper still apply).
	Redeliver Redeliver
	// Default is the fault mix applied to links PerLink does not override.
	Default Profile
	// PerLink, when non-nil, selects the profile for a directed link; a nil
	// result falls back to Default. See LinkProfiles.
	PerLink func(from, to id.ID) *Profile
	// Tamper, when non-nil, may replace a message (Byzantine-lite faults).
	Tamper Tamper
	// Filter, when non-nil, restricts injection: messages for which it
	// returns false pass through untouched (and undrawn — keep the filter
	// deterministic or draws desynchronize across runs).
	Filter func(node id.ID, m *msg.Message) bool

	stats Stats
}

// Hook returns the Injector's fault hook, ready to install as
// netsim.Sim.Intercept or (wrapped in Synchronized) transport
// Config.Intercept.
func (inj *Injector) Hook() Hook { return inj.intercept }

// Stats returns a copy of the fault counters.
func (inj *Injector) Stats() Stats { return inj.stats }

func (inj *Injector) intercept(node id.ID, m *msg.Message) (*msg.Message, bool) {
	inj.stats.Inspected++
	if inj.Filter != nil && !inj.Filter(node, m) {
		return nil, true
	}
	p := &inj.Default
	if inj.PerLink != nil {
		if q := inj.PerLink(m.Sender, node); q != nil {
			p = q
		}
	}
	r := inj.Rand
	if p.Drop > 0 && r.Float64() < p.Drop {
		inj.stats.Dropped++
		return nil, false
	}
	var repl *msg.Message
	if inj.Tamper != nil {
		if t := inj.Tamper(node, m); t != nil {
			inj.stats.Tampered++
			repl = t
			m = t
		}
	}
	if p.Duplicate > 0 && inj.Redeliver != nil && r.Float64() < p.Duplicate {
		inj.stats.Duplicated++
		inj.Redeliver(m.Sender, node, *m, delayDraw(r, p.DupDelay))
	}
	if p.Delay > 0 && inj.Redeliver != nil && r.Float64() < p.Delay {
		inj.stats.Delayed++
		inj.Redeliver(m.Sender, node, *m, 1+delayDraw(r, p.MaxDelay))
		return nil, false
	}
	return repl, true
}

// delayDraw returns a uniform delay in [0, max].
func delayDraw(r *rng.Rand, max uint64) uint64 {
	if max == 0 {
		return 0
	}
	return r.Uint64n(max + 1)
}

// Chain composes hooks left to right: each sees the previous one's
// replacement, any suppression short-circuits.
func Chain(hooks ...Hook) Hook {
	return func(node id.ID, m *msg.Message) (*msg.Message, bool) {
		var repl *msg.Message
		cur := m
		for _, h := range hooks {
			r, ok := h(node, cur)
			if !ok {
				return nil, false
			}
			if r != nil {
				repl, cur = r, r
			}
		}
		return repl, true
	}
}

// Synchronized serializes a hook behind a mutex for the TCP transport, whose
// reader goroutines invoke the hook concurrently. The simulator is
// single-threaded and does not need it.
func Synchronized(h Hook) Hook {
	var mu sync.Mutex
	return func(node id.ID, m *msg.Message) (*msg.Message, bool) {
		mu.Lock()
		defer mu.Unlock()
		return h(node, m)
	}
}

// Tampers composes tamperers in order, each seeing the previous replacement.
func Tampers(ts ...Tamper) Tamper {
	return func(node id.ID, m *msg.Message) *msg.Message {
		var repl *msg.Message
		cur := m
		for _, t := range ts {
			if r := t(node, cur); r != nil {
				repl, cur = r, r
			}
		}
		return repl
	}
}

// TamperBySenders restricts t to messages claiming a sender in byz: the
// Byzantine-lite model where a subset of nodes lies and everyone else is
// honest.
func TamperBySenders(byz map[id.ID]bool, t Tamper) Tamper {
	return func(node id.ID, m *msg.Message) *msg.Message {
		if !byz[m.Sender] {
			return nil
		}
		return t(node, m)
	}
}

// ShuffleLiar returns a tamperer that poisons SHUFFLE/SHUFFLEREPLY exchange
// lists with the three lies core's handler sanitation must reject: the
// receiver's own identifier, a duplicated entry, and a fabricated identifier
// that resolves to no live node.
func ShuffleLiar(r *rng.Rand) Tamper {
	return func(node id.ID, m *msg.Message) *msg.Message {
		if m.Type != msg.Shuffle && m.Type != msg.ShuffleReply {
			return nil
		}
		t := *m
		nodes := make([]id.ID, 0, len(m.Nodes)+3)
		nodes = append(nodes, m.Nodes...)
		nodes = append(nodes, node)
		if len(nodes) > 0 {
			nodes = append(nodes, nodes[r.Intn(len(nodes))])
		}
		nodes = append(nodes, id.ID(1<<40|r.Uint64n(1<<20)))
		t.Nodes = nodes
		return &t
	}
}

// PayloadCorrupter returns a tamperer that flips one byte of broadcast
// payloads. Deliveries still count for the reliability tracker (the protocol
// carries no integrity layer — the fault verifies nothing crashes and
// dissemination metadata stays consistent under corruption).
func PayloadCorrupter(r *rng.Rand) Tamper {
	return func(_ id.ID, m *msg.Message) *msg.Message {
		if (m.Type != msg.Gossip && m.Type != msg.PlumtreeGossip) || len(m.Payload) == 0 {
			return nil
		}
		t := *m
		pl := append([]byte(nil), m.Payload...)
		pl[r.Intn(len(pl))] ^= 0xff
		t.Payload = pl
		return &t
	}
}

// Replayer records broadcast payload messages as they pass the hook and
// re-injects stale ones later: the round-replay fault, which the broadcast
// layers' seen-tables must absorb without double-delivering. Keep bounds the
// memory (a ring of the most recent messages). It records the messages
// themselves, slices shared, which holds only over the simulator's frozen
// bodies; a replayer over the TCP transport, whose payloads are lent, would
// have to record m.Clone().
type Replayer struct {
	Rand      *rng.Rand
	Redeliver Redeliver
	// Prob is the per-delivery probability of replaying one recorded message
	// to the current receiver.
	Prob float64
	// Keep is the ring capacity (default 64).
	Keep int

	ring     []msg.Message
	next     int
	replayed uint64
}

// Replayed returns how many stale messages were re-injected.
func (rp *Replayer) Replayed() uint64 { return rp.replayed }

// Hook returns the replayer's hook; compose it with an Injector via Chain.
func (rp *Replayer) Hook() Hook {
	return func(node id.ID, m *msg.Message) (*msg.Message, bool) {
		if m.Type == msg.Gossip || m.Type == msg.PlumtreeGossip {
			keep := rp.Keep
			if keep <= 0 {
				keep = 64
			}
			if len(rp.ring) < keep {
				rp.ring = append(rp.ring, *m)
			} else {
				rp.ring[rp.next] = *m
				rp.next = (rp.next + 1) % keep
			}
			if rp.Prob > 0 && rp.Redeliver != nil && rp.Rand.Float64() < rp.Prob {
				stale := rp.ring[rp.Rand.Intn(len(rp.ring))]
				rp.Redeliver(stale.Sender, node, stale, 0)
				rp.replayed++
			}
		}
		return nil, true
	}
}
