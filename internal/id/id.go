// Package id defines node identifiers and the address book that maps
// identifiers to network addresses.
//
// The paper identifies a node by an (ip, port) tuple. Inside the simulator a
// compact integer is far cheaper, so ID is a uint64; the transport layer uses
// a Book to translate between IDs and dialable addresses, and FromAddr
// derives a stable ID from an address string so that real deployments need no
// out-of-band coordination.
package id

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// ID uniquely identifies a node in the overlay.
//
// Nil is the zero value and never identifies a real node.
type ID uint64

// Nil is the absent node identifier.
const Nil ID = 0

// String renders the identifier in a short human-readable form.
func (i ID) String() string {
	if i == Nil {
		return "nil"
	}
	return "n" + strconv.FormatUint(uint64(i), 10)
}

// IsNil reports whether the identifier is the zero identifier.
func (i ID) IsNil() bool { return i == Nil }

// FromAddr derives a stable non-nil identifier from a network address such as
// "10.0.0.1:7946". Two distinct addresses collide with probability ~2^-64.
func FromAddr(addr string) ID {
	h := fnv.New64a()
	_, _ = h.Write([]byte(addr))
	v := h.Sum64()
	if v == uint64(Nil) {
		v = 1
	}
	return ID(v)
}

// Book is a concurrency-safe bidirectional map between node identifiers and
// dialable addresses. The zero value is ready to use.
type Book struct {
	mu     sync.RWMutex
	byID   map[ID]string
	byAddr map[string]ID
}

// NewBook returns an empty address book.
func NewBook() *Book {
	return &Book{
		byID:   make(map[ID]string),
		byAddr: make(map[string]ID),
	}
}

// Put registers the (id, addr) pair, replacing any previous mapping for
// either key. Re-putting the registered pair, as every received frame does
// for each entry of its directory, changes nothing and takes only the read
// lock, so the readers of concurrent connections do not serialize on it.
func (b *Book) Put(node ID, addr string) {
	b.mu.RLock()
	cur, ok := b.byID[node]
	b.mu.RUnlock()
	if ok && cur == addr {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if cur, ok := b.byID[node]; ok && cur == addr {
		return
	}
	if b.byID == nil {
		b.byID = make(map[ID]string)
		b.byAddr = make(map[string]ID)
	}
	if old, ok := b.byID[node]; ok {
		delete(b.byAddr, old)
	}
	if old, ok := b.byAddr[addr]; ok {
		delete(b.byID, old)
	}
	b.byID[node] = addr
	b.byAddr[addr] = node
}

// Addr returns the address registered for node.
func (b *Book) Addr(node ID) (string, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	addr, ok := b.byID[node]
	return addr, ok
}

// Lookup returns the identifier registered for addr.
func (b *Book) Lookup(addr string) (ID, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	node, ok := b.byAddr[addr]
	return node, ok
}

// Delete removes the mapping for node, if any.
func (b *Book) Delete(node ID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if addr, ok := b.byID[node]; ok {
		delete(b.byAddr, addr)
		delete(b.byID, node)
	}
}

// Len returns the number of registered mappings.
func (b *Book) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.byID)
}

// IDs returns all registered identifiers in ascending order.
func (b *Book) IDs() []ID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]ID, 0, len(b.byID))
	for node := range b.byID {
		out = append(out, node)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MustAddr returns the address for node or panics; intended for tests and
// program initialization where the mapping is known to exist.
func (b *Book) MustAddr(node ID) string {
	addr, ok := b.Addr(node)
	if !ok {
		panic(fmt.Sprintf("id: no address registered for %v", node))
	}
	return addr
}
