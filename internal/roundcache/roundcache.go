// Package roundcache provides fixed-capacity, allocation-free caches keyed by
// broadcast round identifiers.
//
// The broadcast layers (internal/gossip, internal/plumtree) and the delivery
// tracker need per-round state — "have I delivered round r?", the hop count
// and parent a round arrived with, the announcers of a round known only by
// IHAVE. Go maps give the right semantics but the wrong cost model: every
// insert may allocate, Reset either re-allocates the map or leaves its bucket
// array at high-water size, and at 100k nodes the per-delivery map traffic
// dominates the whole protocol stack (see BENCH_sim.json).
//
// Both containers are fixed-capacity with FIFO eviction: once capacity
// rounds are held, inserting a new round evicts the round added capacity
// insertions ago. That bounds memory for the life of the node, keeps the
// steady state allocation-free, and — unlike a window keyed on round values —
// remembers the most recent capacity distinct rounds exactly, whatever the
// identifiers look like: the simulator's harness allocates rounds
// monotonically, but the TCP agents draw them from a 64-bit random stream,
// and a cache that assumed monotonicity would evict live rounds under
// birthday collisions and re-deliver (observed as reliability > 1 in the
// 12-agent loopback soak before this design). An evicted delivered-round
// entry can at worst re-deliver a message older than capacity rounds — the
// bounded-memory trade every deployed gossip message-id cache makes.
//
// Set is that contract and nothing else: a ring of the last capacity
// identifiers, where eviction is the overwrite. Cache finds its values through
// an open-addressed hash table beside a ring that names the round to evict.
package roundcache

import "math/bits"

// fib is the 64-bit fibonacci hashing multiplier (2^64 / φ); the high bits
// of round*fib spread both sequential and random round identifiers uniformly
// over a power-of-two table.
const fib = 0x9E3779B97F4A7C15

// table is Cache's open-addressed core: keys only, paired with a value array
// whose entries move in lockstep.
type table struct {
	keys  []uint64 // round+1 per slot; 0 = empty
	fifo  []uint64 // ring of the last len(fifo) inserted rounds (+1; 0 = free)
	head  int      // next fifo write position (oldest entry when full)
	n     int      // live table entries
	shift uint8    // 64 - log2(len(keys)): fibonacci hash shift
}

func (t *table) init(capacity int) {
	c := ceilPow2(capacity)
	*t = table{
		keys:  make([]uint64, 2*c), // ≤50% load keeps probe chains short
		fifo:  make([]uint64, c),
		shift: uint8(64 - bits.TrailingZeros(uint(2*c))),
	}
}

func (t *table) home(round uint64) int { return int((round * fib) >> t.shift) }

// find returns the slot holding round, or -1.
func (t *table) find(round uint64) int {
	mask := len(t.keys) - 1
	for i := t.home(round); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case round + 1:
			return i
		case 0:
			return -1
		}
	}
}

// insert places round (not present) into the table and returns its slot.
func (t *table) insert(round uint64) int {
	mask := len(t.keys) - 1
	i := t.home(round)
	for t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	t.keys[i] = round + 1
	t.n++
	return i
}

// remove deletes round from the table using backward-shift deletion (no
// tombstones: probe chains stay minimal forever). Every entry movement is
// reported through swap(from, to) so a parallel value array stays in sync;
// swap is called such that a plain element swap keeps evicted values
// available for recycling. It returns whether round was present.
func (t *table) remove(round uint64, swap func(from, to int)) bool {
	i := t.find(round)
	if i < 0 {
		return false
	}
	mask := len(t.keys) - 1
	t.keys[i] = 0
	t.n--
	// Backward shift: walk the probe chain after i, moving into the hole any
	// entry whose home does not lie in (hole, j] — one that could no longer
	// be found once the hole stops its probe chain.
	hole := i
	for j := (i + 1) & mask; t.keys[j] != 0; j = (j + 1) & mask {
		if cyclicBetween(hole, t.home(t.keys[j]-1), j) {
			continue
		}
		t.keys[hole] = t.keys[j]
		t.keys[j] = 0
		swap(j, hole)
		hole = j
	}
	return true
}

// cyclicBetween reports whether pos lies in the half-open cyclic interval
// (hole, j]: the positions a probe starting after hole still visits.
func cyclicBetween(hole, pos, j int) bool {
	if hole <= j {
		return hole < pos && pos <= j
	}
	return pos > hole || pos <= j
}

// noteInsert records round in the FIFO ring and returns the round (if any) to
// evict to make room: the one inserted capacity insertions ago, if still live.
func (t *table) noteInsert(round uint64) (evict uint64, ok bool) {
	old := t.fifo[t.head]
	t.fifo[t.head] = round + 1
	t.head = (t.head + 1) & (len(t.fifo) - 1)
	if old == 0 {
		return 0, false
	}
	return old - 1, true
}

func (t *table) reset() {
	clear(t.keys)
	clear(t.fifo)
	t.head, t.n = 0, 0
}

// Set is a fixed-capacity set of round identifiers with allocation-free
// Add/Contains and FIFO eviction: a ring of the last len(ring) distinct
// rounds added. Any uint64 is an ordinary round. The zero value is invalid;
// use NewSet, or embed a Set by value and Init it (one pointer dereference
// fewer on every operation, which is measurable when the set is consulted
// per delivered event across 100k cache-cold nodes).
type Set struct {
	ring []uint64 // power-of-two length; ring[:n] is occupied
	pos  int      // next write position: the oldest entry once full
	n    int      // rounds held, ≤ len(ring)

	// hi bounds from above every round written since Reset (if n > 0), so a
	// round above it is absent without reading the ring: every first delivery
	// when identifiers come from a counter, which keeps a set that exists
	// once per node to one cold line per Add. Rounds at or below hi (random
	// identifiers, out-of-order arrivals) take the scan.
	hi uint64
}

// NewSet returns a set remembering the most recent capacity rounds.
// Capacity is rounded up to a power of two; values < 2 are clamped to 2.
func NewSet(capacity int) *Set {
	s := &Set{}
	s.Init(capacity)
	return s
}

// Init (re)initializes the set with the given capacity.
func (s *Set) Init(capacity int) { *s = Set{ring: make([]uint64, ceilPow2(capacity))} }

// Contains reports whether round is in the set.
func (s *Set) Contains(round uint64) bool {
	if round > s.hi {
		return false
	}
	// Newest to oldest (a late duplicate is most often of a recent round) in
	// two straight runs; the second is empty until the ring wraps (pos == n).
	for i := s.pos - 1; i >= 0; i-- {
		if s.ring[i] == round {
			return true
		}
	}
	for i := s.n - 1; i >= s.pos; i-- {
		if s.ring[i] == round {
			return true
		}
	}
	return false
}

// Add inserts round, evicting the round added capacity insertions ago. It
// reports whether round was newly inserted (false: already present).
func (s *Set) Add(round uint64) bool {
	if s.n == 0 || round > s.hi {
		s.hi = round
	} else if s.Contains(round) {
		return false
	}
	s.ring[s.pos] = round
	s.pos = (s.pos + 1) & (len(s.ring) - 1)
	s.n = min(s.n+1, len(s.ring))
	return true
}

// Reset clears the set in place: n bounds every read of the ring.
func (s *Set) Reset() { s.pos, s.n, s.hi = 0, 0, 0 }

// Cache is a fixed-capacity map from round identifiers to values of type V
// with allocation-free steady-state access and FIFO eviction. Entries are
// recycled in place when a round is evicted, removed or the cache is reset,
// so a V holding slices keeps its backing arrays across generations (the
// "reuse entries instead of make-on-reset" discipline). The other side of
// that: whatever a V references stays reachable until its slot is reused,
// long after its round is gone, so a V must not hold memory whose release
// matters — plumtree keeps delivered payloads in a ring of its own for that
// reason. The table stores round+1 with 0 for an empty slot, so the
// identifier math.MaxUint64 is reserved: an empty cache reports it present.
// The zero value is invalid; use New, or embed by value and Init.
type Cache[V any] struct {
	t    table
	vals []V

	// swapFn is the bound swap method, created once: passing c.swap at each
	// eviction site would allocate a fresh method value per call.
	swapFn func(from, to int)
}

// New returns a cache remembering the most recent capacity rounds. Capacity
// is rounded up to a power of two; values < 2 are clamped to 2.
func New[V any](capacity int) *Cache[V] {
	c := &Cache[V]{}
	c.Init(capacity)
	return c
}

// Init (re)initializes the cache with the given capacity.
func (c *Cache[V]) Init(capacity int) {
	c.t.init(capacity)
	c.vals = make([]V, len(c.t.keys))
	c.swapFn = c.swap
}

// swap keeps the value array aligned with backward-shifted keys. A plain
// element swap (rather than a copy) parks the dead value — and its
// recyclable backing arrays — in the vacated slot instead of aliasing one
// live backing array from two slots.
func (c *Cache[V]) swap(from, to int) {
	c.vals[from], c.vals[to] = c.vals[to], c.vals[from]
}

// Get returns a pointer to round's value, or nil when round is absent. The
// pointer is valid until the next Put or Remove on the cache; callers must
// not retain it across mutations.
func (c *Cache[V]) Get(round uint64) *V {
	i := c.t.find(round)
	if i < 0 {
		return nil
	}
	return &c.vals[i]
}

// Put inserts round (evicting the round added capacity insertions ago, if
// still present) and returns a pointer to its value slot together with
// whether the round was already present. The value slot is NOT zeroed on
// eviction or fresh insert: the caller resets the fields it uses, which is
// what lets entries recycle their slice capacity.
func (c *Cache[V]) Put(round uint64) (v *V, existed bool) {
	if i := c.t.find(round); i >= 0 {
		return &c.vals[i], true
	}
	if evict, ok := c.t.noteInsert(round); ok {
		c.t.remove(evict, c.swapFn)
	}
	return &c.vals[c.t.insert(round)], false
}

// Remove deletes round, keeping its value slot's memory for reuse, and
// reports whether it was present.
func (c *Cache[V]) Remove(round uint64) bool {
	return c.t.remove(round, c.swapFn)
}

// Len returns the number of rounds currently held.
func (c *Cache[V]) Len() int { return c.t.n }

// Reset clears the key table in place. Values are kept untouched for reuse:
// the next Put of any round hands back a previous value to recycle.
func (c *Cache[V]) Reset() { c.t.reset() }

// ForEach calls fn for every occupied slot in unspecified order. fn must not
// mutate the cache.
func (c *Cache[V]) ForEach(fn func(round uint64, v *V)) {
	for i, r := range c.t.keys {
		if r != 0 {
			fn(r-1, &c.vals[i])
		}
	}
}

// ceilPow2 rounds capacity up to a power of two, clamping to [2, 1<<20].
func ceilPow2(capacity int) int {
	capacity = min(max(capacity, 2), 1<<20)
	return 1 << bits.Len(uint(capacity-1))
}
