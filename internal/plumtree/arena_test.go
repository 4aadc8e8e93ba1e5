package plumtree

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/rng"
)

// TestPayloadRingArenaMatchesModel drives the copying ring (an environment
// without frozen bodies) with random payload sizes — empty ones, ones small
// enough to hit the entry limit, ones large enough to wrap the arena every
// few puts, and ones over the whole budget — and overwrites each payload
// right after its put, as the TCP transport reuses its read buffer. After
// every put it holds the ring to a model of the rounds put so far:
//
//   - every round the ring still serves returns exactly the bytes put for it,
//     never another round's (the arena reused under a live entry);
//   - the newest payload is always served, and the served rounds are the
//     newest ones, in FIFO order;
//   - the live entries hold at most DefaultCacheWindow payloads and
//     retainBudget bytes, unless the newest alone is larger;
//   - nothing is dropped early: the live bytes plus the newest dropped
//     payload exceed the budget less one payload (the wrap gap), unless the
//     entry limit dropped it.
func TestPayloadRingArenaMatchesModel(t *testing.T) {
	type put struct {
		round uint64
		slot  uint16
		want  []byte
	}
	// A payload is a window of random bytes at a random offset, so no two
	// rounds carry the same bytes, and the lender's buffer is src.
	const maxSize = retainBudget + 64<<10
	random := make([]byte, maxSize+1<<20)
	for i, r := 0, rng.New(99); i < len(random); i += 8 {
		binary.LittleEndian.PutUint64(random[i:], r.Uint64())
	}
	src := make([]byte, maxSize)
	rounds := uint64(1500)
	if testing.Short() {
		rounds = 400
	}
	for seed := uint64(1); seed <= 2; seed++ {
		r := rng.New(seed)
		var ring payloadRing
		var puts []put // non-empty puts, oldest first
		largest := 0
		for round := uint64(1); round <= rounds; round++ {
			var size int
			switch k := r.Intn(100); {
			case k < 5:
				size = 0
			case k < 7:
				size = retainBudget + 1 + r.Intn(64<<10)
			case k < 40:
				size = 1 + r.Intn(64)
			default:
				size = 1 + r.Intn(400<<10)
			}
			want := random[r.Intn(1<<20):][:size]
			lent := src[:size]
			copy(lent, want)
			slot := ring.put(round, lent)
			clear(lent) // the lender reuses its buffer
			if size == 0 {
				if slot != noSlot {
					t.Fatalf("seed %d round %d: an empty payload took slot %d", seed, round, slot)
				}
				continue
			}
			largest = max(largest, min(size, retainBudget))
			puts = append(puts, put{round, slot, want})

			live, liveBytes := 0, 0
			for i := len(puts) - 1; i >= 0; i-- {
				p := puts[i]
				got, ok := ring.get(p.round, p.slot)
				if !ok {
					// FIFO: everything older is gone too.
					for _, q := range puts[:i] {
						if _, ok := ring.get(q.round, q.slot); ok {
							t.Fatalf("seed %d round %d: round %d served after the newer round %d was dropped",
								seed, round, q.round, p.round)
						}
					}
					if live < len(ring.slots) && liveBytes+len(p.want) <= retainBudget-largest {
						t.Fatalf("seed %d round %d: round %d (%d B) dropped with %d live entries of %d B: early by more than the wrap gap",
							seed, round, p.round, len(p.want), live, liveBytes)
					}
					puts = puts[i+1:]
					break
				}
				if !bytes.Equal(got, p.want) {
					t.Fatalf("seed %d round %d: round %d served %d bytes that are not the ones put for it",
						seed, round, p.round, len(got))
				}
				live++
				liveBytes += len(got)
			}
			if live == 0 || puts[len(puts)-1].round != round {
				t.Fatalf("seed %d round %d: the newest payload is not served", seed, round)
			}
			if live > len(ring.slots) || (live > 1 && liveBytes > retainBudget) {
				t.Fatalf("seed %d round %d: %d live entries hold %d bytes, over the bounds", seed, round, live, liveBytes)
			}
			if live != ring.n || liveBytes != ring.bytes {
				t.Fatalf("seed %d round %d: ring counts %d entries / %d B, model %d / %d",
					seed, round, ring.n, ring.bytes, live, liveBytes)
			}
		}
		if len(ring.arena) != retainBudget {
			t.Fatalf("seed %d: arena of %d bytes, want retainBudget", seed, len(ring.arena))
		}
	}
}

// TestArenaAllocatedOnceAndKeptAcrossReset: the copying ring allocates its
// arena at the first non-empty put and never again, ResetSeen included.
func TestArenaAllocatedOnceAndKeptAcrossReset(t *testing.T) {
	env := &nullEnv{self: 1, rand: rng.New(1)}
	n := New(env, &versionedMembership{neighbors: []id.ID{2}}, Config{}, nil)
	if n.ring.alias {
		t.Fatal("a node over an environment without frozen bodies aliases payloads")
	}
	n.BroadcastTopic(1, 0, nil)
	if n.ring.arena != nil {
		t.Fatal("an empty payload allocated the arena")
	}
	payload := make([]byte, 100<<10)
	n.BroadcastTopic(2, 0, payload)
	if len(n.ring.arena) != retainBudget {
		t.Fatalf("arena of %d bytes after the first payload, want retainBudget", len(n.ring.arena))
	}
	arena := &n.ring.arena[0]
	round := uint64(2)
	allocs := testing.AllocsPerRun(100, func() {
		round++
		n.BroadcastTopic(round, 0, payload)
		if round%30 == 0 {
			n.ResetSeen()
		}
	})
	if allocs != 0 || &n.ring.arena[0] != arena {
		t.Errorf("%.2f allocations per broadcast, arena replaced: %v; want 0 and the one arena",
			allocs, &n.ring.arena[0] != arena)
	}
}

// TestNetsimNodesAliasRetainedPayloads: the simulator declares frozen
// bodies, so a netsim-hosted node allocates no arena and retains the very
// buffer the source broadcast. Copying there would multiply the payload
// bytes by the population.
func TestNetsimNodesAliasRetainedPayloads(t *testing.T) {
	c := newStaticCluster(t, 12, 3, Config{TimerDelay: 2})
	payloads := make(map[uint64][]byte)
	for round := uint64(1); round <= 20; round++ {
		payloads[round] = stampedPayload(round, 1<<10)
		c.nodes[c.ids[int(round)%len(c.ids)]].Broadcast(round, payloads[round])
		c.sim.Drain()
	}
	for _, nodeID := range c.ids {
		n := c.nodes[nodeID]
		if !n.ring.alias || n.ring.arena != nil {
			t.Fatalf("node %v: alias %v, arena of %d bytes; want aliasing and no arena",
				nodeID, n.ring.alias, len(n.ring.arena))
		}
		for round, want := range payloads {
			_, got, ok := n.retained(round)
			if !ok || len(got) != len(want) || &got[0] != &want[0] {
				t.Fatalf("node %v retains round %d as a copy (ok %v), not the broadcast buffer", nodeID, round, ok)
			}
		}
	}
}
