package view

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hyparview/internal/id"
	"hyparview/internal/rng"
)

func TestNewPanicsOnBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", c)
				}
			}()
			New(c)
		}()
	}
}

func TestAddRemoveContains(t *testing.T) {
	v := New(3)
	if !v.Add(1) || !v.Add(2) {
		t.Fatal("Add of fresh ids failed")
	}
	if v.Add(1) {
		t.Error("duplicate Add succeeded")
	}
	if v.Add(id.Nil) {
		t.Error("Add(Nil) succeeded")
	}
	if !v.Contains(1) || v.Contains(9) {
		t.Error("Contains wrong")
	}
	if !v.Remove(1) || v.Remove(1) {
		t.Error("Remove semantics wrong")
	}
	if v.Len() != 1 {
		t.Errorf("Len = %d, want 1", v.Len())
	}
}

func TestFullBlocksAdd(t *testing.T) {
	v := New(2)
	v.Add(1)
	v.Add(2)
	if !v.Full() {
		t.Error("view not reported full")
	}
	if v.Add(3) {
		t.Error("Add to full view succeeded")
	}
	if v.Len() != 2 {
		t.Errorf("Len = %d, want 2", v.Len())
	}
}

func TestRemoveRandomEmptiesView(t *testing.T) {
	v := New(5)
	r := rng.New(1)
	for i := 1; i <= 5; i++ {
		v.Add(id.ID(i))
	}
	seen := make(map[id.ID]bool)
	for i := 0; i < 5; i++ {
		n, ok := v.RemoveRandom(r)
		if !ok || seen[n] {
			t.Fatalf("RemoveRandom returned %v, ok=%v, dup=%v", n, ok, seen[n])
		}
		seen[n] = true
	}
	if _, ok := v.RemoveRandom(r); ok {
		t.Error("RemoveRandom on empty view succeeded")
	}
	if !v.Empty() {
		t.Error("view not empty after removing everything")
	}
}

func TestRandomExcept(t *testing.T) {
	r := rng.New(2)
	v := New(4)

	if _, ok := v.RandomExcept(r, 1); ok {
		t.Error("RandomExcept on empty view succeeded")
	}
	v.Add(1)
	if _, ok := v.RandomExcept(r, 1); ok {
		t.Error("RandomExcept with only the excluded member succeeded")
	}
	v.Add(2)
	v.Add(3)
	for i := 0; i < 100; i++ {
		n, ok := v.RandomExcept(r, 2)
		if !ok || n == 2 {
			t.Fatalf("RandomExcept returned %v, ok=%v", n, ok)
		}
	}
	// Excluded id not in the view: all members eligible.
	counts := map[id.ID]int{}
	for i := 0; i < 300; i++ {
		n, _ := v.RandomExcept(r, 99)
		counts[n]++
	}
	if len(counts) != 3 {
		t.Errorf("RandomExcept(absent) covered %d members, want 3", len(counts))
	}
}

func TestRandomExceptUniform(t *testing.T) {
	r := rng.New(3)
	v := New(4)
	for i := 1; i <= 4; i++ {
		v.Add(id.ID(i))
	}
	counts := map[id.ID]int{}
	const trials = 30000
	for i := 0; i < trials; i++ {
		n, _ := v.RandomExcept(r, 4)
		counts[n]++
	}
	for n := id.ID(1); n <= 3; n++ {
		c := counts[n]
		if c < trials/3-trials/20 || c > trials/3+trials/20 {
			t.Errorf("member %v drawn %d times, want ≈%d", n, c, trials/3)
		}
	}
	if counts[4] != 0 {
		t.Error("excluded member was drawn")
	}
}

func TestSampleDistinct(t *testing.T) {
	r := rng.New(4)
	v := New(10)
	for i := 1; i <= 10; i++ {
		v.Add(id.ID(i))
	}
	for _, k := range []int{0, 1, 3, 10, 15} {
		s := v.Sample(r, k)
		want := k
		if want > 10 {
			want = 10
		}
		if want < 0 {
			want = 0
		}
		if len(s) != want {
			t.Fatalf("Sample(%d) len = %d, want %d", k, len(s), want)
		}
		seen := make(map[id.ID]bool)
		for _, n := range s {
			if seen[n] || !v.Contains(n) {
				t.Fatalf("Sample(%d) invalid: %v", k, s)
			}
			seen[n] = true
		}
	}
	// Sampling must not disturb the view itself.
	if v.Len() != 10 {
		t.Error("Sample mutated the view")
	}
}

func TestMembersIsCopy(t *testing.T) {
	v := New(3)
	v.Add(1)
	m := v.Members()
	m[0] = 42
	if !v.Contains(1) || v.Contains(42) {
		t.Error("Members() exposed internal storage")
	}
}

func TestClear(t *testing.T) {
	v := New(3)
	v.Add(1)
	v.Add(2)
	v.Clear()
	if !v.Empty() || v.Contains(1) {
		t.Error("Clear left residue")
	}
	if !v.Add(1) {
		t.Error("Add after Clear failed")
	}
}

func TestForEachAndAt(t *testing.T) {
	v := New(3)
	v.Add(1)
	v.Add(2)
	total := 0
	v.ForEach(func(id.ID) { total++ })
	if total != 2 {
		t.Errorf("ForEach visited %d, want 2", total)
	}
	seen := map[id.ID]bool{v.At(0): true, v.At(1): true}
	if !seen[1] || !seen[2] {
		t.Errorf("At() coverage wrong: %v", seen)
	}
}

// TestInvariantsUnderRandomOps drives a view with random operations and
// checks the structural invariants after every step.
func TestInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed uint64, capRaw uint8, ops []uint16) bool {
		capacity := int(capRaw%16) + 1
		v := New(capacity)
		r := rng.New(seed)
		shadow := make(map[id.ID]bool)
		for _, op := range ops {
			node := id.ID(op%32 + 1)
			switch op % 4 {
			case 0, 1:
				added := v.Add(node)
				if added {
					shadow[node] = true
				}
			case 2:
				if v.Remove(node) {
					delete(shadow, node)
				}
			case 3:
				if n, ok := v.RemoveRandom(r); ok {
					delete(shadow, n)
				}
			}
			// Invariants: bounded, consistent with shadow set.
			if v.Len() > capacity || v.Len() != len(shadow) {
				return false
			}
			for n := range shadow {
				if !v.Contains(n) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSampleIsUniformish(t *testing.T) {
	r := rng.New(8)
	v := New(6)
	for i := 1; i <= 6; i++ {
		v.Add(id.ID(i))
	}
	counts := map[id.ID]int{}
	const trials = 30000
	for i := 0; i < trials; i++ {
		for _, n := range v.Sample(r, 2) {
			counts[n]++
		}
	}
	want := trials * 2 / 6
	for n := id.ID(1); n <= 6; n++ {
		if c := counts[n]; c < want*9/10 || c > want*11/10 {
			t.Errorf("member %v sampled %d times, want ≈%d", n, c, want)
		}
	}
}

func TestRandomAccessor(t *testing.T) {
	r := rng.New(9)
	v := New(3)
	if _, ok := v.Random(r); ok {
		t.Error("Random on empty view succeeded")
	}
	v.Add(1)
	v.Add(2)
	seen := map[id.ID]bool{}
	for i := 0; i < 100; i++ {
		n, ok := v.Random(r)
		if !ok || !v.Contains(n) {
			t.Fatalf("Random = %v, %v", n, ok)
		}
		seen[n] = true
	}
	if len(seen) != 2 {
		t.Errorf("Random covered %d members, want 2", len(seen))
	}
	if v.Cap() != 3 {
		t.Errorf("Cap = %d", v.Cap())
	}
}

// referenceSample is SampleInto as it was first written: a partial
// Fisher-Yates over a copy of the membership, or a full shuffle of the copy
// when n covers the view. It is what the in-place SampleInto must equal draw
// for draw.
func referenceSample(members []id.ID, r *rng.Rand, n int) []id.ID {
	if n <= 0 || len(members) == 0 {
		return nil
	}
	tmp := append([]id.ID(nil), members...)
	if n >= len(tmp) {
		r.Shuffle(len(tmp), func(i, j int) { tmp[i], tmp[j] = tmp[j], tmp[i] })
		return tmp
	}
	for i := 0; i < n; i++ {
		j := i + r.Intn(len(tmp)-i)
		tmp[i], tmp[j] = tmp[j], tmp[i]
	}
	return tmp[:n]
}

// TestSampleIntoMatchesReference is the differential test of the in-place
// sample: over random view sizes, sample sizes (past the view's length too)
// and seeds it returns the reference's members in the reference's order,
// consumes the same number of draws, leaves the view's order and Version as
// they were, and appends behind a non-empty dst prefix without touching it.
func TestSampleIntoMatchesReference(t *testing.T) {
	pick := rng.New(7)
	for trial := 0; trial < 4000; trial++ {
		size := pick.Intn(41)
		v := New(40)
		for v.Len() < size {
			v.Add(id.ID(1 + pick.Intn(1000)))
		}
		for k := pick.Intn(4); k > 0 && !v.Empty(); k-- { // removals scramble the order
			v.RemoveRandom(pick)
		}
		n := pick.Intn(v.Len() + 3)
		seed := pick.Uint64()
		before, version := v.Members(), v.Version()

		ra, rb := rng.New(seed), rng.New(seed)
		want := referenceSample(before, ra, n)
		prefix := []id.ID{id.ID(1 << 40), id.ID(1<<40 + 1)}
		got := v.SampleInto(rb, n, append([]id.ID(nil), prefix...))

		if !slices.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("len %d n %d: dst prefix disturbed: %v", len(before), n, got[:len(prefix)])
		}
		if !slices.Equal(got[len(prefix):], want) {
			t.Fatalf("len %d n %d: sampled %v, reference %v", len(before), n, got[len(prefix):], want)
		}
		if ra.Uint64() != rb.Uint64() {
			t.Fatalf("len %d n %d: consumed a different number of draws than the reference", len(before), n)
		}
		if !slices.Equal(v.Members(), before) || v.Version() != version {
			t.Fatalf("len %d n %d: view changed by sampling: %v -> %v, version %d -> %d",
				len(before), n, before, v.Members(), version, v.Version())
		}
		if s := v.Sample(rng.New(seed), n); !slices.Equal(s, want) {
			t.Fatalf("len %d n %d: Sample %v, reference %v", len(before), n, s, want)
		}
	}
}

// TestRemoveRandomMatchesDrawThenRemove pins removal by position to what it
// replaced: draw Intn(Len), then Remove the member found there.
func TestRemoveRandomMatchesDrawThenRemove(t *testing.T) {
	a, b := New(30), New(30)
	for i := 1; i <= 30; i++ {
		a.Add(id.ID(i))
		b.Add(id.ID(i))
	}
	ra, rb := rng.New(11), rng.New(11)
	for !a.Empty() {
		want := b.At(rb.Intn(b.Len()))
		b.Remove(want)
		got, ok := a.RemoveRandom(ra)
		if !ok || got != want {
			t.Fatalf("RemoveRandom = %v, %v; draw-then-Remove removed %v", got, ok, want)
		}
		if !slices.Equal(a.Members(), b.Members()) || a.Version() != b.Version() {
			t.Fatalf("views diverged: %v (v%d) vs %v (v%d)", a.Members(), a.Version(), b.Members(), b.Version())
		}
	}
	if _, ok := a.RemoveRandom(ra); ok {
		t.Error("RemoveRandom on an empty view reported a removal")
	}
}

// TestAddAbsentIsAddWithoutTheChecks: on an absent id and a non-full view the
// two are the same operation.
func TestAddAbsentIsAddWithoutTheChecks(t *testing.T) {
	a, b := New(8), New(8)
	for i := 1; i <= 8; i++ {
		a.AddAbsent(id.ID(i))
		if !b.Add(id.ID(i)) {
			t.Fatalf("Add(%d) refused", i)
		}
	}
	if !slices.Equal(a.Members(), b.Members()) || a.Version() != b.Version() || !a.Full() {
		t.Fatalf("AddAbsent %v (v%d), Add %v (v%d)", a.Members(), a.Version(), b.Members(), b.Version())
	}
}
