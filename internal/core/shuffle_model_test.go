package core

import (
	"slices"
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/rng"
)

// shuffleModel is the passive-view integration rule of paper §4.4 written
// straight from the text, over plain slices: skip ourselves, nil and anything
// already in a view; when the passive view is full make room by dropping the
// first identifier we sent the peer that is still there, else a random one;
// append. It removes the way view.View does (the last member fills the hole)
// because the views are compared element for element.
type shuffleModel struct {
	self            id.ID
	active, passive []id.ID
	passiveCap      int
	rand            *rng.Rand
}

func (m *shuffleModel) dropPassive(i int) {
	last := len(m.passive) - 1
	m.passive[i] = m.passive[last]
	m.passive = m.passive[:last]
}

func (m *shuffleModel) integrate(received, sent []id.ID) {
	for _, node := range received {
		if node == m.self || node.IsNil() ||
			slices.Contains(m.active, node) || slices.Contains(m.passive, node) {
			continue
		}
		if len(m.passive) == m.passiveCap {
			evicted := false
			for len(sent) > 0 && !evicted {
				i := slices.Index(m.passive, sent[0])
				sent = sent[1:]
				if i >= 0 {
					m.dropPassive(i)
					evicted = true
				}
			}
			if !evicted {
				m.dropPassive(m.rand.Intn(len(m.passive)))
			}
		}
		m.passive = append(m.passive, node)
	}
}

// TestIntegrateShuffleMatchesModel drives integrateShuffle and the model with
// the same random exchanges — received lists holding duplicates, our own id,
// nil, active and passive members; sent lists holding duplicates and entries
// that have left the passive view since — and compares both views element
// for element after every call, and the random streams at the end.
func TestIntegrateShuffleMatchesModel(t *testing.T) {
	pick := rng.New(21)
	for trial := 0; trial < 300; trial++ {
		cfg := Config{PassiveSize: 4 + pick.Intn(27)}
		env := newFakeEnv(1)
		seed := pick.Uint64()
		env.rand = rng.New(seed)
		n := New(env, cfg)
		universe := 2 * (n.cfg.ActiveSize + n.cfg.PassiveSize)
		randomID := func() id.ID { return id.ID(pick.Intn(universe + 1)) } // 0 is nil, 1 is self

		for k := pick.Intn(n.cfg.ActiveSize + 1); k > 0; k-- {
			if node := randomID(); node > 1 {
				n.active.Add(node)
			}
		}
		for k := pick.Intn(2 * n.cfg.PassiveSize); k > 0; k-- {
			if node := randomID(); node > 1 && !n.active.Contains(node) {
				n.passive.Add(node)
			}
		}
		model := &shuffleModel{
			self: 1, active: n.Active(), passive: n.Passive(),
			passiveCap: n.cfg.PassiveSize, rand: rng.New(seed),
		}

		for call := 0; call < 12; call++ {
			received := make([]id.ID, pick.Intn(14))
			for i := range received {
				received[i] = randomID()
			}
			// What a node sends is mostly a sample of its passive view; mix in
			// ids that are not (or no longer) there.
			sent := n.passive.Sample(pick, pick.Intn(6))
			for k := pick.Intn(4); k > 0; k-- {
				sent = append(sent, randomID())
			}
			pick.Shuffle(len(sent), func(i, j int) { sent[i], sent[j] = sent[j], sent[i] })
			frozen := slices.Clone(sent)

			n.integrateShuffle(received, sent)
			model.integrate(received, sent)

			if !slices.Equal(sent, frozen) {
				t.Fatalf("trial %d call %d: the sent list was written to: %v -> %v", trial, call, frozen, sent)
			}
			if !slices.Equal(n.Active(), model.active) {
				t.Fatalf("trial %d call %d: active %v, model %v", trial, call, n.Active(), model.active)
			}
			if !slices.Equal(n.Passive(), model.passive) {
				t.Fatalf("trial %d call %d: received %v sent %v\npassive %v\nmodel   %v",
					trial, call, received, sent, n.Passive(), model.passive)
			}
		}
		if env.rand.Uint64() != model.rand.Uint64() {
			t.Fatalf("trial %d: integrateShuffle and the model consumed different draws", trial)
		}
	}
}

// TestShuffleHandlersAllocations pins what the shuffle path allocates once a
// node's scratch is warm: a SHUFFLE accepted at the end of its walk allocates
// exactly one slice, the frozen reply list (sampling, sanitizing and
// integrating use no memory of their own), and a SHUFFLEREPLY allocates
// nothing.
func TestShuffleHandlersAllocations(t *testing.T) {
	n, env := newTestNode(1)
	n.active.Add(2)
	for i := id.ID(10); i < 40; i++ {
		n.passive.Add(i)
	}
	// Every run brings four identifiers the node has never seen, so each one
	// integrates into the full passive view: evictions by sent entry first,
	// by random draw after.
	next := id.ID(1000)
	fresh := func(list []id.ID) {
		for i := 0; i < 4; i++ {
			list[i] = next
			next++
		}
	}
	request := msg.Message{
		Type: msg.Shuffle, Sender: 2, Subject: 50, TTL: 1,
		Nodes: []id.ID{0, 0, 0, 0, 50, 10, 11, 12},
	}
	if allocs := testing.AllocsPerRun(100, func() {
		env.sent = env.sent[:0]
		fresh(request.Nodes)
		n.handleShuffle(&request)
	}); allocs != 1 {
		t.Errorf("an accepted SHUFFLE allocates %.0f, want 1 (the reply list)", allocs)
	}
	if got, ok := env.lastOfType(msg.ShuffleReply); !ok || got.to != 50 || len(got.m.Nodes) != 8 {
		t.Fatalf("no 8-entry reply to the walk origin: %+v", env.sent)
	}

	sent := []id.ID{1, 2, 14, 15}
	reply := msg.Message{Type: msg.ShuffleReply, Sender: 2, Nodes: []id.ID{0, 0, 0, 0, 14, 2, 1}}
	if allocs := testing.AllocsPerRun(100, func() {
		n.lastShuffleSent = sent
		fresh(reply.Nodes)
		n.handleShuffleReply(&reply)
	}); allocs != 0 {
		t.Errorf("a SHUFFLEREPLY allocates %.0f, want 0", allocs)
	}
	if !n.passive.Full() || !n.passive.Contains(next-1) {
		t.Fatalf("the last reply was not integrated: %v", n.Passive())
	}
}
