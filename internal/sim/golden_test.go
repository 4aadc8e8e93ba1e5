package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"hyparview/internal/core"
	"hyparview/internal/id"
)

// goldenTraceHash runs the paper's headline in miniature — stabilize, kill
// 80 %, broadcast, heal, broadcast — and folds everything a changed random
// draw or a changed view order would move into one FNV-1a hash: every node's
// active then passive view in internal (At) order, the simulator's counters
// and each broadcast's reliability.
func goldenTraceHash(seed uint64, shards int) uint64 {
	c := NewCluster(HyParView, Options{N: 1000, Seed: seed, Shards: shards})
	c.Stabilize(20)
	c.FailFraction(0.8)
	rels := c.BroadcastBurst(10)
	c.Stabilize(5)
	rels = append(rels, c.BroadcastBurst(4)...)

	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putView := func(members []id.ID) {
		put(uint64(len(members)))
		for _, m := range members {
			put(uint64(m))
		}
	}
	for _, nodeID := range c.IDs() {
		n := c.Membership(nodeID).(*core.Node)
		putView(n.Active())
		putView(n.Passive())
	}
	st := c.Sim.Stats()
	for _, v := range []uint64{
		st.Sent, st.Delivered, st.Dropped, st.SendFailures,
		st.Overflowed, st.FaultDropped, st.Redelivered, st.BytesSent,
	} {
		put(v)
	}
	for _, rel := range rels {
		put(math.Float64bits(rel))
	}
	return h.Sum64()
}

// TestGoldenTrace compares a run against constants, where TestDeterminism and
// the shard trace matrices compare a run with itself: the constants were
// recorded before the membership hot path was rewritten to read each view
// once, and any change to core, view, rng or netsim that alters one random
// draw or one view order moves them. A protocol change moves them on purpose
// and re-records them; an optimisation must not.
func TestGoldenTrace(t *testing.T) {
	for _, tc := range []struct {
		seed   uint64
		shards int
		want   uint64
	}{
		{1, 1, 0x6d90b63509acafc8},
		{1, 2, 0x6d90b63509acafc8},
		{23, 1, 0x87badd58f86bae13},
		{23, 2, 0x87badd58f86bae13},
	} {
		if got := goldenTraceHash(tc.seed, tc.shards); got != tc.want {
			t.Errorf("seed %d shards %d: trace hash %#016x, recorded %#016x", tc.seed, tc.shards, got, tc.want)
		}
	}
}
