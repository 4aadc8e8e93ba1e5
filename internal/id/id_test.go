package id

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestIDString(t *testing.T) {
	tests := []struct {
		name string
		give ID
		want string
	}{
		{name: "nil", give: Nil, want: "nil"},
		{name: "one", give: ID(1), want: "n1"},
		{name: "big", give: ID(123456789), want: "n123456789"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.give.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestIDIsNil(t *testing.T) {
	if !Nil.IsNil() {
		t.Error("Nil.IsNil() = false")
	}
	if ID(7).IsNil() {
		t.Error("ID(7).IsNil() = true")
	}
}

func TestFromAddrStable(t *testing.T) {
	a := FromAddr("10.0.0.1:7946")
	b := FromAddr("10.0.0.1:7946")
	if a != b {
		t.Errorf("FromAddr not stable: %v != %v", a, b)
	}
	if a.IsNil() {
		t.Error("FromAddr returned Nil")
	}
	if c := FromAddr("10.0.0.2:7946"); c == a {
		t.Error("distinct addresses collided")
	}
}

func TestFromAddrNeverNil(t *testing.T) {
	f := func(addr string) bool { return !FromAddr(addr).IsNil() }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBookPutAddrLookup(t *testing.T) {
	b := NewBook()
	b.Put(ID(1), "a:1")
	b.Put(ID(2), "a:2")

	if addr, ok := b.Addr(ID(1)); !ok || addr != "a:1" {
		t.Errorf("Addr(1) = %q, %v", addr, ok)
	}
	if node, ok := b.Lookup("a:2"); !ok || node != ID(2) {
		t.Errorf("Lookup(a:2) = %v, %v", node, ok)
	}
	if _, ok := b.Addr(ID(3)); ok {
		t.Error("Addr(3) unexpectedly found")
	}
	if _, ok := b.Lookup("nope"); ok {
		t.Error("Lookup(nope) unexpectedly found")
	}
}

func TestBookPutReplacesBothDirections(t *testing.T) {
	b := NewBook()
	b.Put(ID(1), "a:1")
	// Re-map the id to a new address: the old address must be forgotten.
	b.Put(ID(1), "a:9")
	if _, ok := b.Lookup("a:1"); ok {
		t.Error("stale address a:1 still resolves")
	}
	if addr, _ := b.Addr(ID(1)); addr != "a:9" {
		t.Errorf("Addr(1) = %q, want a:9", addr)
	}
	// Re-map the address to a new id: the old id must be forgotten.
	b.Put(ID(2), "a:9")
	if _, ok := b.Addr(ID(1)); ok {
		t.Error("stale id 1 still resolves")
	}
	if b.Len() != 1 {
		t.Errorf("Len() = %d, want 1", b.Len())
	}
}

// TestBookPut checks both directions of the book after a second Put, in
// the three cases a sender's frames produce.
func TestBookPut(t *testing.T) {
	type pair struct {
		node ID
		addr string
	}
	for _, tc := range []struct {
		name   string
		second pair
		want   []pair   // mappings that resolve both ways afterwards
		gone   []ID     // ids that no longer resolve
		stale  []string // addresses that no longer resolve
	}{
		{name: "same mapping", second: pair{1, "a:1"}, want: []pair{{1, "a:1"}, {2, "a:2"}}},
		{name: "new address", second: pair{1, "a:9"}, want: []pair{{1, "a:9"}, {2, "a:2"}}, stale: []string{"a:1"}},
		{name: "reused address", second: pair{3, "a:1"}, want: []pair{{3, "a:1"}, {2, "a:2"}}, gone: []ID{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBook()
			b.Put(1, "a:1")
			b.Put(2, "a:2")
			b.Put(tc.second.node, tc.second.addr)
			for _, p := range tc.want {
				if addr, ok := b.Addr(p.node); !ok || addr != p.addr {
					t.Errorf("Addr(%v) = %q, %v; want %q", p.node, addr, ok, p.addr)
				}
				if node, ok := b.Lookup(p.addr); !ok || node != p.node {
					t.Errorf("Lookup(%q) = %v, %v; want %v", p.addr, node, ok, p.node)
				}
			}
			for _, node := range tc.gone {
				if _, ok := b.Addr(node); ok {
					t.Errorf("Addr(%v) still resolves", node)
				}
			}
			for _, addr := range tc.stale {
				if _, ok := b.Lookup(addr); ok {
					t.Errorf("Lookup(%q) still resolves", addr)
				}
			}
			if b.Len() != len(tc.want) {
				t.Errorf("Len() = %d, want %d", b.Len(), len(tc.want))
			}
		})
	}
	// Readers re-put the registered pair, as every received frame does for
	// its directory, while a writer moves the id between two addresses: the
	// unchanged Put checks under the read lock and must still never see a
	// half-made change (run under -race).
	t.Run("concurrent", func(t *testing.T) {
		b := NewBook()
		b.Put(1, "a:1")
		const rounds = 2000
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					b.Put(1, "a:1")
					if addr, ok := b.Addr(1); !ok || (addr != "a:1" && addr != "a:9") {
						t.Errorf("Addr(1) = %q, %v mid-change", addr, ok)
						return
					}
				}
			}()
		}
		for i := 0; i < rounds; i++ {
			b.Put(1, "a:9")
			b.Put(1, "a:1")
		}
		wg.Wait()
		b.Put(1, "a:1")
		if node, ok := b.Lookup("a:1"); !ok || node != 1 {
			t.Errorf("Lookup(a:1) = %v, %v; want n1", node, ok)
		}
		if _, ok := b.Lookup("a:9"); ok || b.Len() != 1 {
			t.Errorf("a:9 still resolves or Len() = %d: the book lost a direction", b.Len())
		}
	})
}

func BenchmarkBookPutUnchanged(b *testing.B) {
	book := NewBook()
	book.Put(1, "127.0.0.1:7001")
	b.ReportAllocs()
	for b.Loop() {
		book.Put(1, "127.0.0.1:7001")
	}
}

func TestBookDelete(t *testing.T) {
	b := NewBook()
	b.Put(ID(1), "a:1")
	b.Delete(ID(1))
	if _, ok := b.Addr(ID(1)); ok {
		t.Error("deleted id still resolves")
	}
	if _, ok := b.Lookup("a:1"); ok {
		t.Error("deleted addr still resolves")
	}
	b.Delete(ID(42)) // absent: must not panic
}

func TestBookIDsSorted(t *testing.T) {
	b := NewBook()
	for _, n := range []ID{5, 1, 9, 3} {
		b.Put(n, n.String())
	}
	ids := b.IDs()
	if len(ids) != 4 {
		t.Fatalf("IDs() len = %d, want 4", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Errorf("IDs() not sorted: %v", ids)
		}
	}
}

func TestBookZeroValueUsable(t *testing.T) {
	var b Book
	b.Put(ID(1), "x")
	if addr, ok := b.Addr(ID(1)); !ok || addr != "x" {
		t.Errorf("zero-value Book broken: %q %v", addr, ok)
	}
}

func TestBookMustAddrPanics(t *testing.T) {
	b := NewBook()
	defer func() {
		if recover() == nil {
			t.Error("MustAddr on missing id did not panic")
		}
	}()
	b.MustAddr(ID(404))
}
