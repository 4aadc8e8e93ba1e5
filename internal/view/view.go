// Package view implements the bounded partial-view containers used by the
// membership protocols.
//
// A View is a set of node identifiers with a fixed capacity: the container
// the HyParView pseudo-code (paper Algorithm 1) manipulates for both the
// active and the passive view. Views are tiny — the paper's configurations
// hold 5 active and 30 passive entries — so membership tests and removals
// are linear scans over one contiguous array: at this size a scan resolves
// in a cache line or two and beats a hash map on every axis that matters on
// the per-delivery hot path (no hashing, no pointer chasing, no per-insert
// allocation), which is measurable at 100k-node populations where view
// lookups run hundreds of thousands of times per broadcast.
//
// SampleInto selects on the member array itself: it swaps the drawn members
// to the front, copies them out and undoes the swaps before it returns, so no
// per-view scratch copy exists. Mutating and restoring is safe because a view
// belongs to one protocol node, one goroutine at a time delivers to that
// node, and nothing — no callback, no send — runs between the first swap and
// the last undo.
package view

import (
	"hyparview/internal/id"
	"hyparview/internal/rng"
)

// View is a bounded set of node identifiers. The zero value is unusable; use
// New. View is not safe for concurrent use: each protocol instance owns its
// views and the simulator serializes deliveries per node.
type View struct {
	cap     int
	order   []id.ID
	version uint64 // incremented on every membership change

	// inline backs order for small capacities (every active view: the
	// paper's configurations use 5). A View embedded by value in a protocol
	// node then keeps its members inside the node's own cache lines — the
	// per-delivery flood fan-out reads them with zero extra pointer chases.
	// A View whose order aliases inline must never be copied by value;
	// protocol nodes hold Views embedded in heap-allocated structs and only
	// ever address them through the node pointer.
	inline [8]id.ID
}

// New returns an empty view with the given capacity. Capacity must be
// positive.
func New(capacity int) *View {
	v := &View{}
	v.Init(capacity)
	return v
}

// Init (re)initializes the view with the given capacity, for embedding a
// View by value inside a protocol node: the per-delivery paths then reach
// the member array through one pointer instead of two. Capacity must be
// positive.
func (v *View) Init(capacity int) {
	if capacity <= 0 {
		panic("view: capacity must be positive")
	}
	v.cap = capacity
	if capacity <= len(v.inline) {
		v.order = v.inline[:0]
	} else {
		v.order = make([]id.ID, 0, capacity)
	}
	v.version = 0
}

// Cap returns the view's capacity.
func (v *View) Cap() int { return v.cap }

// Version returns a change counter over the membership: it increments on
// every successful Add, Remove and Clear, never decreases, and lets layers
// that mirror the view (peer.NeighborVersioned) detect "nothing changed"
// with one integer compare.
func (v *View) Version() uint64 { return v.version }

// Len returns the number of identifiers currently in the view.
func (v *View) Len() int { return len(v.order) }

// Full reports whether the view is at capacity.
func (v *View) Full() bool { return len(v.order) >= v.cap }

// Empty reports whether the view has no members.
func (v *View) Empty() bool { return len(v.order) == 0 }

// indexOf returns the position of node, or -1 (linear scan; views are tiny).
func (v *View) indexOf(node id.ID) int {
	for i, m := range v.order {
		if m == node {
			return i
		}
	}
	return -1
}

// Contains reports whether node is in the view.
func (v *View) Contains(node id.ID) bool {
	return v.indexOf(node) >= 0
}

// Add inserts node and reports whether it was inserted. Adding a present
// identifier or adding to a full view is a no-op returning false; callers
// that need eviction semantics must free a slot first (see RemoveRandom).
func (v *View) Add(node id.ID) bool {
	if node.IsNil() {
		return false
	}
	if v.indexOf(node) >= 0 {
		return false
	}
	if v.Full() {
		return false
	}
	v.AddAbsent(node)
	return true
}

// AddAbsent appends node without the checks Add makes: the caller has just
// established that node is not Nil, not a member, and that the view is not
// full. It exists for the paths that test membership themselves and would
// otherwise pay the scan twice.
func (v *View) AddAbsent(node id.ID) {
	v.order = append(v.order, node)
	v.version++
}

// Remove deletes node and reports whether it was present.
func (v *View) Remove(node id.ID) bool {
	i := v.indexOf(node)
	if i < 0 {
		return false
	}
	v.removeAt(i)
	return true
}

// removeAt deletes the member at position i by moving the last member into
// its place.
func (v *View) removeAt(i int) {
	last := len(v.order) - 1
	v.order[i] = v.order[last]
	v.order = v.order[:last]
	v.version++
}

// RemoveRandom deletes a uniformly random member and returns it; it returns
// (Nil, false) when the view is empty.
func (v *View) RemoveRandom(r *rng.Rand) (id.ID, bool) {
	if len(v.order) == 0 {
		return id.Nil, false
	}
	i := r.Intn(len(v.order))
	node := v.order[i]
	v.removeAt(i)
	return node, true
}

// Random returns a uniformly random member without removing it; it returns
// (Nil, false) when the view is empty.
func (v *View) Random(r *rng.Rand) (id.ID, bool) {
	if len(v.order) == 0 {
		return id.Nil, false
	}
	return v.order[r.Intn(len(v.order))], true
}

// RandomExcept returns a uniformly random member different from excluded; it
// returns (Nil, false) when no such member exists.
func (v *View) RandomExcept(r *rng.Rand, excluded id.ID) (id.ID, bool) {
	n := len(v.order)
	if n == 0 {
		return id.Nil, false
	}
	if v.indexOf(excluded) < 0 {
		return v.order[r.Intn(n)], true
	}
	if n == 1 {
		return id.Nil, false
	}
	// Choose uniformly among the n-1 members that are not excluded.
	i := r.Intn(n - 1)
	if v.order[i] == excluded {
		i = n - 1
	}
	return v.order[i], true
}

// Sample returns up to n distinct members chosen uniformly at random. The
// returned slice is freshly allocated (callers send it inside messages,
// where it must stay frozen; see the ownership rules on package peer).
func (v *View) Sample(r *rng.Rand, n int) []id.ID {
	if n <= 0 || len(v.order) == 0 {
		return nil
	}
	if n > len(v.order) {
		n = len(v.order)
	}
	return v.SampleInto(r, n, make([]id.ID, 0, n))
}

// SampleInto appends up to n distinct members chosen uniformly at random to
// dst and returns the extended slice. It consumes exactly the same random
// draws as Sample for the same (n, membership), so the two are
// interchangeable without perturbing a seeded run; the difference is purely
// allocation — SampleInto appends into caller-provided memory. The view's
// order and Version are the same on return as on entry.
func (v *View) SampleInto(r *rng.Rand, n int, dst []id.ID) []id.ID {
	if n <= 0 || len(v.order) == 0 {
		return dst
	}
	if n >= len(v.order) {
		start := len(dst)
		dst = append(dst, v.order...)
		out := dst[start:]
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return dst
	}
	// Partial Fisher-Yates on the member array itself, undone before
	// returning: the view's internal order is part of the deterministic-trace
	// contract (Members/At iteration order). Each swap position is parked in
	// dst; undoing the swaps last to first, the member a step selected is at
	// position i again exactly when that step is about to be undone, and
	// takes the parked position's place.
	m := v.order
	for i := 0; i < n; i++ {
		j := i + r.Intn(len(m)-i)
		m[i], m[j] = m[j], m[i]
		dst = append(dst, id.ID(j))
	}
	out := dst[len(dst)-n:]
	for i := n - 1; i >= 0; i-- {
		j := int(out[i])
		out[i] = m[i]
		m[i], m[j] = m[j], m[i]
	}
	return dst
}

// Members returns a copy of the current membership in insertion-ish order
// (removal swaps elements, so the order is arbitrary but deterministic).
func (v *View) Members() []id.ID {
	out := make([]id.ID, len(v.order))
	copy(out, v.order)
	return out
}

// ForEach calls fn for every member. fn must not mutate the view.
func (v *View) ForEach(fn func(id.ID)) {
	for _, n := range v.order {
		fn(n)
	}
}

// At returns the i-th member in internal order; it is intended for tests and
// metrics that iterate without allocating.
func (v *View) At(i int) id.ID { return v.order[i] }

// AppendMembers appends the current membership to dst and returns the
// extended slice; dst may be a reused scratch buffer.
func (v *View) AppendMembers(dst []id.ID) []id.ID {
	return append(dst, v.order...)
}

// AppendExcept appends every member except exclude to dst and returns the
// extended slice. It is the flood-dissemination hot path (one call per
// delivered broadcast), so it ranges the member array directly.
func (v *View) AppendExcept(dst []id.ID, exclude id.ID) []id.ID {
	for _, m := range v.order {
		if m != exclude {
			dst = append(dst, m)
		}
	}
	return dst
}

// Clear removes all members.
func (v *View) Clear() {
	if len(v.order) > 0 {
		v.version++
	}
	v.order = v.order[:0]
}
