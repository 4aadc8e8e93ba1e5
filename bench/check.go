package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"
	"time"
)

// Every broadcast payload starts with a header the receiver can check
// without shared state: sequence number, the publisher's slot, the instant
// the broadcast was due (ns since the run's epoch), which latency is timed
// from, and a CRC over header and body.
const headerLen = 8 + 4 + 8 + 4

func stamp(buf []byte, seq uint64, pub uint32, dueNs int64) {
	binary.BigEndian.PutUint64(buf[0:], seq)
	binary.BigEndian.PutUint32(buf[8:], pub)
	binary.BigEndian.PutUint64(buf[12:], uint64(dueNs))
	binary.BigEndian.PutUint32(buf[20:], payloadCRC(buf))
}

func payloadCRC(buf []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(buf[:20]), crc32.IEEETable, buf[headerLen:])
}

func parse(buf []byte) (seq uint64, pub uint32, dueNs int64, ok bool) {
	if len(buf) < headerLen || binary.BigEndian.Uint32(buf[20:]) != payloadCRC(buf) {
		return 0, 0, 0, false
	}
	return binary.BigEndian.Uint64(buf[0:]), binary.BigEndian.Uint32(buf[8:]),
		int64(binary.BigEndian.Uint64(buf[12:])), true
}

// sample is one first-copy delivery of a window broadcast at a remote agent.
type sample struct {
	seq   uint32
	latNs int64 // arrival minus due instant
}

// receiver is the delivery ledger of one agent instance. deliver runs on
// that agent's actor goroutine only; everything else reads it after the
// agent is closed.
type receiver struct {
	slot     int
	epoch    time.Time
	copies   []uint8 // deliveries seen per sequence number
	samples  []sample
	corrupt  int
	total    *atomic.Int64 // first copies across the overlay
	eligible [2]int64      // ns since epoch: expected for dues inside [from, to)
}

func newReceiver(slot, broadcasts int, epoch time.Time, total *atomic.Int64) *receiver {
	return &receiver{slot: slot, epoch: epoch, copies: make([]uint8, broadcasts), total: total,
		eligible: [2]int64{0, 1 << 62}}
}

func (r *receiver) deliver(payload []byte) {
	now := int64(time.Since(r.epoch))
	seq, pub, due, ok := parse(payload)
	if !ok || seq >= uint64(len(r.copies)) {
		r.corrupt++
		return
	}
	if r.copies[seq] < 255 {
		r.copies[seq]++
	}
	if r.copies[seq] != 1 {
		return
	}
	r.total.Add(1)
	if int(pub) != r.slot { // the publisher's own delivery crosses no wire
		r.samples = append(r.samples, sample{uint32(seq), now - due})
	}
}

// audit is the verdict over a set of receivers for the broadcasts
// [first, first+len(dues)).
type audit struct {
	expected, ok                int
	missing, duplicate, corrupt int
}

func (a audit) share() float64 {
	if a.expected == 0 {
		return 0
	}
	return float64(a.ok) / float64(a.expected)
}

func (a audit) String() string {
	return fmt.Sprintf("%d/%d delivered once and intact (missing %d, duplicated %d, corrupt %d)",
		a.ok, a.expected, a.missing, a.duplicate, a.corrupt)
}

// check holds every receiver to exactly-once: a broadcast is expected at
// each receiver that was eligible at the instant it was due. Duplicates and
// corrupt payloads count wherever they happen.
func check(rxs []*receiver, first int, dues []int64) audit {
	var a audit
	for _, r := range rxs {
		a.corrupt += r.corrupt
		for k, due := range dues {
			c := r.copies[first+k]
			if c > 1 {
				a.duplicate++
			}
			if due < r.eligible[0] || due >= r.eligible[1] {
				continue
			}
			a.expected++
			switch c {
			case 0:
				a.missing++
			case 1:
				a.ok++
			}
		}
	}
	return a
}
