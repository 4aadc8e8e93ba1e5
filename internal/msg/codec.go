package msg

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hyparview/internal/id"
)

// Codec errors surfaced to transport callers.
var (
	// ErrShortBuffer indicates the encoded form was truncated.
	ErrShortBuffer = errors.New("msg: short buffer")
	// ErrBadType indicates an unknown message type byte.
	ErrBadType = errors.New("msg: unknown message type")
	// ErrTooLarge indicates a length field exceeding sane bounds.
	ErrTooLarge = errors.New("msg: length field too large")
)

// Wire format (all integers big-endian):
//
//	type      uint8
//	sender    uint64
//	subject   uint64
//	ttl       uint8
//	priority  uint8
//	accept    uint8
//	round     uint64
//	hops      uint16
//	costOld   uint64
//	costNew   uint64
//	topic     uint32
//	nNodes    uint16, then nNodes * uint64
//	nEntries  uint16, then nEntries * (uint64 id + uint16 age)
//	nPayload  uint32, then payload bytes
//	nDir      uint16, then nDir * (uint64 id + uint16 addrLen + addr bytes)
//
// The fixed header is 50 bytes. maxList bounds list lengths defensively: no
// protocol in this repository exchanges more than a few dozen identifiers.
const (
	headerSize = 1 + 8 + 8 + 1 + 1 + 1 + 8 + 2 + 8 + 8 + 4
	maxList    = 1 << 14
	maxPayload = 1 << 26
	maxAddr    = 1 << 10
)

// AppendEncode appends the wire encoding of m to dst and returns the extended
// slice.
func AppendEncode(dst []byte, m Message) []byte {
	dst = append(dst, byte(m.Type))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Sender))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Subject))
	dst = append(dst, m.TTL, byte(m.Priority), boolByte(m.Accept))
	dst = binary.BigEndian.AppendUint64(dst, m.Round)
	dst = binary.BigEndian.AppendUint16(dst, m.Hops)
	dst = binary.BigEndian.AppendUint64(dst, m.CostOld)
	dst = binary.BigEndian.AppendUint64(dst, m.CostNew)
	dst = binary.BigEndian.AppendUint32(dst, m.Topic)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Nodes)))
	for _, n := range m.Nodes {
		dst = binary.BigEndian.AppendUint64(dst, uint64(n))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Entries)))
	for _, e := range m.Entries {
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.Node))
		dst = binary.BigEndian.AppendUint16(dst, e.Age)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Payload)))
	dst = append(dst, m.Payload...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Directory)))
	for _, d := range m.Directory {
		dst = binary.BigEndian.AppendUint64(dst, uint64(d.Node))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(d.Addr)))
		dst = append(dst, d.Addr...)
	}
	return dst
}

// Encode returns the wire encoding of m.
func Encode(m Message) []byte {
	return AppendEncode(make([]byte, 0, EncodedSize(m)), m)
}

// EncodedSize returns the exact number of bytes Encode will produce for m.
func EncodedSize(m Message) int { return m.EncodedSize() }

// EncodedSize returns the exact number of bytes Encode will produce. The
// pointer receiver matters on the simulator's per-send accounting path: a
// value receiver would copy the whole struct per call. The directory loop
// lives in a separate non-inlinable function so this common case (no
// directory) stays inline at the call site.
func (m *Message) EncodedSize() int {
	n := headerSize + 2 + 8*len(m.Nodes) + 2 + 10*len(m.Entries) + 4 + len(m.Payload) + 2
	if len(m.Directory) != 0 {
		n += directorySize(m.Directory)
	}
	return n
}

// directorySize returns the encoded size of the directory side table.
func directorySize(dir []DirEntry) int {
	n := 0
	for _, d := range dir {
		n += 10 + len(d.Addr)
	}
	return n
}

// Decode parses a message from buf, returning the message and the number of
// bytes consumed. Payload is lent, not copied: it is buf's own bytes (capped,
// so an append to it cannot run into the rest of buf), valid for as long as
// the caller leaves buf unchanged. Nodes, Entries and Directory are decoded
// into fresh memory. A caller that keeps the message past buf's reuse keeps
// m.Clone() instead; the TCP transport reuses one buffer per connection, and
// lends each frame only to its dispatch (see package peer, "Message
// ownership").
func Decode(buf []byte) (Message, int, error) {
	var m Message
	if len(buf) < headerSize+2 {
		return m, 0, ErrShortBuffer
	}
	off := 0
	m.Type = Type(buf[off])
	off++
	if !m.Type.Valid() {
		return m, 0, fmt.Errorf("%w: %d", ErrBadType, buf[0])
	}
	m.Sender = id.ID(binary.BigEndian.Uint64(buf[off:]))
	off += 8
	m.Subject = id.ID(binary.BigEndian.Uint64(buf[off:]))
	off += 8
	m.TTL = buf[off]
	m.Priority = Priority(buf[off+1])
	m.Accept = buf[off+2] != 0
	off += 3
	m.Round = binary.BigEndian.Uint64(buf[off:])
	off += 8
	m.Hops = binary.BigEndian.Uint16(buf[off:])
	off += 2
	m.CostOld = binary.BigEndian.Uint64(buf[off:])
	off += 8
	m.CostNew = binary.BigEndian.Uint64(buf[off:])
	off += 8
	m.Topic = binary.BigEndian.Uint32(buf[off:])
	off += 4

	nNodes := int(binary.BigEndian.Uint16(buf[off:]))
	off += 2
	if nNodes > maxList {
		return m, 0, ErrTooLarge
	}
	if len(buf) < off+8*nNodes+2 {
		return m, 0, ErrShortBuffer
	}
	if nNodes > 0 {
		m.Nodes = make([]id.ID, nNodes)
		for i := range m.Nodes {
			m.Nodes[i] = id.ID(binary.BigEndian.Uint64(buf[off:]))
			off += 8
		}
	}

	nEntries := int(binary.BigEndian.Uint16(buf[off:]))
	off += 2
	if nEntries > maxList {
		return m, 0, ErrTooLarge
	}
	if len(buf) < off+10*nEntries+4 {
		return m, 0, ErrShortBuffer
	}
	if nEntries > 0 {
		m.Entries = make([]Entry, nEntries)
		for i := range m.Entries {
			m.Entries[i].Node = id.ID(binary.BigEndian.Uint64(buf[off:]))
			m.Entries[i].Age = binary.BigEndian.Uint16(buf[off+8:])
			off += 10
		}
	}

	nPayload := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if nPayload > maxPayload {
		return m, 0, ErrTooLarge
	}
	if len(buf) < off+nPayload {
		return m, 0, ErrShortBuffer
	}
	if nPayload > 0 {
		m.Payload = buf[off : off+nPayload : off+nPayload]
		off += nPayload
	}

	if len(buf) < off+2 {
		return m, 0, ErrShortBuffer
	}
	nDir := int(binary.BigEndian.Uint16(buf[off:]))
	off += 2
	if nDir > maxList {
		return m, 0, ErrTooLarge
	}
	// Verify the buffer can hold at least the fixed part of every entry
	// before allocating: a 2-byte hostile frame claiming 16384 entries must
	// not cost a ~400KB allocation per frame.
	if len(buf) < off+10*nDir {
		return m, 0, ErrShortBuffer
	}
	if nDir > 0 {
		m.Directory = make([]DirEntry, nDir)
		for i := range m.Directory {
			if len(buf) < off+10 {
				return m, 0, ErrShortBuffer
			}
			m.Directory[i].Node = id.ID(binary.BigEndian.Uint64(buf[off:]))
			alen := int(binary.BigEndian.Uint16(buf[off+8:]))
			off += 10
			if alen > maxAddr {
				return m, 0, ErrTooLarge
			}
			if len(buf) < off+alen {
				return m, 0, ErrShortBuffer
			}
			m.Directory[i].Addr = string(buf[off : off+alen])
			off += alen
		}
	}
	return m, off, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
