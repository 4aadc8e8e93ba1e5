package msg

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hyparview/internal/id"
)

func sampleMessages() []Message {
	return []Message{
		{Type: Join, Sender: 1},
		{Type: ForwardJoin, Sender: 2, Subject: 3, TTL: 6},
		{Type: Disconnect, Sender: 9},
		{Type: Neighbor, Sender: 4, Priority: HighPriority},
		{Type: Neighbor, Sender: 4, Priority: LowPriority},
		{Type: NeighborReply, Sender: 5, Accept: true},
		{Type: Shuffle, Sender: 6, Subject: 6, TTL: 4, Nodes: []id.ID{1, 2, 3, 4, 5, 6, 7, 8}},
		{Type: ShuffleReply, Sender: 7, Nodes: []id.ID{10, 20, 30}},
		{Type: Gossip, Sender: 8, Round: 12345, Hops: 7, Payload: []byte("hello world")},
		{Type: Gossip, Sender: 8, Round: 12346, Topic: 42, Payload: []byte("topical")},
		{Type: PlumtreeGossip, Sender: 8, Round: 12347, Topic: 1<<31 | 42, Payload: []byte("batched")},
		{Type: GossipAck, Sender: 8, Round: 12345},
		{Type: CyclonShuffle, Sender: 9, Entries: []Entry{{Node: 1, Age: 0}, {Node: 2, Age: 65535}}},
		{Type: CyclonShuffleReply, Sender: 10, Entries: []Entry{{Node: 3, Age: 7}}},
		{Type: CyclonJoinWalk, Sender: 11, Subject: 12, TTL: 5},
		{Type: ScampSubscribe, Sender: 13, Subject: 13},
		{Type: ScampForwardSub, Sender: 14, Subject: 13, TTL: 64},
		{Type: ScampKept, Sender: 15},
		{Type: ScampUnsubscribe, Sender: 16, Subject: 16, Nodes: []id.ID{77}},
		{Type: ScampHeartbeat, Sender: 17},
		{Type: Gossip, Sender: 18, Round: 1, Directory: []DirEntry{
			{Node: 18, Addr: "10.0.0.1:999"}, {Node: 19, Addr: ""},
		}},
		{Type: PlumtreeGossip, Sender: 20, Round: 77, Hops: 3, Payload: []byte("tree")},
		{Type: PlumtreeIHave, Sender: 21, Round: 77, Hops: 3},
		{Type: PlumtreeGraft, Sender: 22, Round: 77, Accept: true},
		{Type: PlumtreePrune, Sender: 23},
		{Type: XBotOptimization, Sender: 24, Subject: 25, CostOld: 812, CostNew: 97},
		{Type: XBotOptimizationReply, Sender: 25, Subject: 26, Accept: true},
		{Type: XBotOptimizationReply, Sender: 25, Subject: 26, Accept: false},
		{Type: XBotReplace, Sender: 26, Subject: 25, Nodes: []id.ID{24}, CostOld: 812, CostNew: 97},
		{Type: XBotReplaceReply, Sender: 27, Subject: 24, Accept: true},
		{Type: XBotSwitch, Sender: 27, Subject: 24, Nodes: []id.ID{26}},
		{Type: XBotSwitchReply, Sender: 25, Subject: 24, Accept: true},
		{Type: XBotDisconnectWait, Sender: 28},
		{Type: Ping, Sender: 29, Round: 0xfeedbeef},
		{Type: Pong, Sender: 30, Round: 0xfeedbeef},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		t.Run(m.Type.String(), func(t *testing.T) {
			buf := Encode(m)
			got, n, err := Decode(buf)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if n != len(buf) {
				t.Errorf("Decode consumed %d of %d bytes", n, len(buf))
			}
			if !reflect.DeepEqual(normalize(m), normalize(got)) {
				t.Errorf("round trip mismatch:\n give %+v\n got  %+v", m, got)
			}
		})
	}
}

// TestDecodeLendsPayload: Decode leaves the payload in buf, capped at its
// own length so an append cannot reach the bytes after it, and decodes the
// other variable-length fields into fresh memory; Clone owns everything.
func TestDecodeLendsPayload(t *testing.T) {
	m := Message{Type: Shuffle, Sender: 1, Nodes: []id.ID{2, 3}, Entries: []Entry{{Node: 4, Age: 5}},
		Payload: []byte("lent"), Directory: []DirEntry{{Node: 2, Addr: "h:2"}}}
	buf := Encode(m)
	got, _, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	kept := got.Clone()
	if allocs := testing.AllocsPerRun(100, func() { got, _, _ = Decode(buf) }); allocs != 4 {
		t.Errorf("Decode allocates %.0f times, want 4: nodes, entries, directory and its address, not the payload", allocs)
	}
	if cap(got.Payload) != len(got.Payload) {
		t.Errorf("lent payload has capacity %d past its %d bytes", cap(got.Payload), len(got.Payload))
	}
	for i := range buf {
		buf[i] = 0xEE
	}
	if string(got.Payload) == "lent" {
		t.Error("the payload was copied out of buf, not lent")
	}
	if !reflect.DeepEqual(kept, m) {
		t.Errorf("Clone of a decoded message changed with buf: %+v", kept)
	}
	if got.Nodes[0] != 2 || got.Entries[0].Node != 4 || got.Directory[0].Addr != "h:2" {
		t.Errorf("lists and directory alias buf: %+v", got)
	}
}

// normalize maps nil and empty slices to nil so DeepEqual compares content.
func normalize(m Message) Message {
	if len(m.Nodes) == 0 {
		m.Nodes = nil
	}
	if len(m.Entries) == 0 {
		m.Entries = nil
	}
	if len(m.Payload) == 0 {
		m.Payload = nil
	}
	if len(m.Directory) == 0 {
		m.Directory = nil
	}
	return m
}

func TestEncodedSizeExact(t *testing.T) {
	for _, m := range sampleMessages() {
		if got, want := len(Encode(m)), EncodedSize(m); got != want {
			t.Errorf("%v: len(Encode)=%d EncodedSize=%d", m.Type, got, want)
		}
	}
}

func TestAppendEncodePreservesPrefix(t *testing.T) {
	prefix := []byte{0xde, 0xad}
	m := Message{Type: Join, Sender: 1}
	out := AppendEncode(append([]byte(nil), prefix...), m)
	if !bytes.Equal(out[:2], prefix) {
		t.Error("AppendEncode clobbered prefix")
	}
	got, _, err := Decode(out[2:])
	if err != nil || got.Type != Join {
		t.Errorf("decode after prefix: %v %v", got, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := Encode(Message{Type: Shuffle, Sender: 1, Nodes: []id.ID{1, 2, 3}})
	tests := []struct {
		name string
		buf  []byte
		want error
	}{
		{name: "empty", buf: nil, want: ErrShortBuffer},
		{name: "header only half", buf: valid[:10], want: ErrShortBuffer},
		{name: "truncated nodes", buf: valid[:len(valid)-8], want: ErrShortBuffer},
		{name: "bad type", buf: append([]byte{0xff}, valid[1:]...), want: ErrBadType},
		{name: "zero type", buf: append([]byte{0x00}, valid[1:]...), want: ErrBadType},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, _, err := Decode(tt.buf)
			if !errors.Is(err, tt.want) {
				t.Errorf("Decode error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestDecodeRejectsHugeLists(t *testing.T) {
	m := Message{Type: Shuffle, Sender: 1, Nodes: []id.ID{1}}
	buf := Encode(m)
	// Nodes count lives right after the fixed header; forge it.
	buf[headerSize] = 0xff
	buf[headerSize+1] = 0xff
	if _, _, err := Decode(buf); err == nil {
		t.Error("Decode accepted forged 65535-node list")
	}
}

func TestDecodeGarbageNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, r.Intn(128))
		r.Read(buf)
		_, _, _ = Decode(buf) // must not panic
	}
}

// quickMessage builds a valid random message for property tests.
func quickMessage(r *rand.Rand) Message {
	types := []Type{Join, ForwardJoin, Disconnect, Neighbor, NeighborReply,
		Shuffle, ShuffleReply, Gossip, GossipAck, CyclonShuffle,
		CyclonShuffleReply, CyclonJoinWalk, ScampSubscribe, ScampForwardSub,
		ScampKept, ScampUnsubscribe, ScampHeartbeat, PlumtreeGossip,
		PlumtreeIHave, PlumtreeGraft, PlumtreePrune, XBotOptimization,
		XBotOptimizationReply, XBotReplace, XBotReplaceReply, XBotSwitch,
		XBotSwitchReply, XBotDisconnectWait}
	m := Message{
		Type:     types[r.Intn(len(types))],
		Sender:   id.ID(r.Uint64()),
		Subject:  id.ID(r.Uint64()),
		TTL:      uint8(r.Intn(256)),
		Priority: Priority(r.Intn(2) + 1),
		Accept:   r.Intn(2) == 0,
		Round:    r.Uint64(),
		Hops:     uint16(r.Intn(1 << 16)),
		Topic:    r.Uint32(),
		CostOld:  r.Uint64(),
		CostNew:  r.Uint64(),
	}
	for i := r.Intn(10); i > 0; i-- {
		m.Nodes = append(m.Nodes, id.ID(r.Uint64()))
	}
	for i := r.Intn(10); i > 0; i-- {
		m.Entries = append(m.Entries, Entry{Node: id.ID(r.Uint64()), Age: uint16(r.Intn(1 << 16))})
	}
	if r.Intn(2) == 0 {
		m.Payload = make([]byte, r.Intn(64))
		r.Read(m.Payload)
	}
	for i := r.Intn(4); i > 0; i-- {
		m.Directory = append(m.Directory, DirEntry{Node: id.ID(r.Uint64()), Addr: "h:1"})
	}
	return m
}

func TestRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(quickMessage(r))
		},
	}
	f := func(m Message) bool {
		got, n, err := Decode(Encode(m))
		return err == nil && n == EncodedSize(m) &&
			reflect.DeepEqual(normalize(m), normalize(got))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncationProperty(t *testing.T) {
	// Every strict prefix of a valid encoding must fail cleanly, never panic.
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		buf := Encode(quickMessage(r))
		for cut := 0; cut < len(buf); cut += 1 + r.Intn(7) {
			if _, _, err := Decode(buf[:cut]); err == nil {
				t.Fatalf("truncated decode at %d/%d succeeded", cut, len(buf))
			}
		}
	}
}
