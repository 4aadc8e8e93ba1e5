package main

import (
	"fmt"
	"runtime"
	"time"

	"hyparview/internal/gossip"
	"hyparview/internal/id"
	"hyparview/internal/idset"
	"hyparview/internal/msg"
	"hyparview/internal/rng"
	"hyparview/internal/roundcache"
	"hyparview/internal/transport"
	"hyparview/internal/view"
)

// The micro loops time the benchmark's own calls into one layer's exported
// functions, after the workload is over and the machine is quiet. Each loop
// is one span carrying its iteration count.

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink uint64

// loop runs fn iters times inside a span and returns ns per iteration.
func loop(log *spanLog, name string, iters int, fn func(i int)) float64 {
	d := log.timed(name, 0, iters, func() {
		for i := 0; i < iters; i++ {
			fn(i)
		}
	})
	return float64(d) / float64(iters)
}

// microMsg times the codec on the workload's own dominant frame: the payload
// message of its broadcast layer at its payload size.
func microMsg(res *result, log *spanLog, prof profile, spec tcpSpec) {
	m := msg.Message{Type: msg.Gossip, Sender: 7, Round: 99, Hops: 2, Payload: make([]byte, spec.payload)}
	if spec.mode == transport.BroadcastPlumtree {
		m.Type = msg.PlumtreeGossip
	}
	iters := max(prof.microIter*64/spec.payload, 1000) // the same bytes either way
	buf := make([]byte, 0, m.EncodedSize())
	res.set("msg.encode_ns", loop(log, "msg.AppendEncode", iters, func(int) {
		buf = msg.AppendEncode(buf[:0], m)
	}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res.set("msg.decode_ns", loop(log, "msg.Decode", iters, func(int) {
		out, n, err := msg.Decode(buf)
		if err != nil {
			panic(fmt.Sprintf("bench: decode of own encoding: %v", err))
		}
		sink += uint64(n) + out.Round
	}))
	runtime.ReadMemStats(&after)
	res.set("msg.decode_allocs", float64(after.Mallocs-before.Mallocs)/float64(iters))
	res.set("msg.wire_bytes_per_frame", float64(len(buf)+4)) // plus the transport's length prefix
}

// microPrimitives times the view, dedup-cache and peer-set operations the
// protocol stack performs per delivered event, at the paper's sizes.
func microPrimitives(res *result, log *spanLog, prof profile) {
	r := rng.New(1)
	passive, active := view.New(30), view.New(5)
	var eager idset.Set
	for i := 1; i <= 30; i++ {
		passive.Add(id.ID(i))
	}
	for i := 1; i <= 5; i++ {
		active.Add(id.ID(i))
		eager.Add(id.ID(i))
	}
	dst := make([]id.ID, 0, 8)
	res.set("view.sample_ns", loop(log, "view.SampleInto", prof.microIter, func(int) {
		dst = passive.SampleInto(r, 4, dst[:0])
	}))
	res.set("view.append_except_ns", loop(log, "view.AppendExcept", prof.microIter, func(i int) {
		dst = active.AppendExcept(dst[:0], id.ID(i%5+1))
	}))
	seen := roundcache.NewSet(gossip.DefaultSeenWindow)
	for i := 0; i < gossip.DefaultSeenWindow; i++ {
		seen.Add(uint64(i))
	}
	res.set("roundcache.hit_ns", loop(log, "roundcache.Contains", prof.microIter, func(i int) {
		if seen.Contains(uint64(i % gossip.DefaultSeenWindow)) {
			sink++
		}
	}))
	res.set("roundcache.add_evict_ns", loop(log, "roundcache.Add", prof.microIter, func(i int) {
		seen.Add(uint64(i) + 1<<32)
	}))
	res.set("idset.contains_ns", loop(log, "idset.Contains", prof.microIter, func(i int) {
		if eager.Contains(id.ID(i%8 + 1)) {
			sink++
		}
	}))
	sink += uint64(len(dst))
}

// microTransport measures the socket data plane with no protocol on top: two
// raw transport endpoints ping-ponging one small frame (the per-hop floor of
// latency_p50_us), and the same ping through one agent's actor loop.
func microTransport(res *result, log *spanLog, prof profile) {
	rounds := max(prof.microIter/50, 200)
	pongs := make(chan uint64, 1)
	onPong := func(_ id.ID, m msg.Message) {
		if m.Type == msg.Pong {
			pongs <- m.Round
		}
	}
	prober, err := transport.Listen("127.0.0.1:0", transport.Config{}, onPong, nil)
	if err != nil {
		res.fail("micro: %v", err)
		return
	}
	defer prober.Close()

	// pingPong sends rounds PINGs to dst and waits for each PONG; it returns
	// the median round trip and the mean Send call, or false on a send error.
	pingPong := func(span string, dst id.ID) (rttUs, sendNs float64, ok bool) {
		rtts := make([]float64, 0, rounds)
		var inSend time.Duration
		log.timed(span, 0, rounds, func() {
			for i := 0; i < rounds; i++ {
				t0 := time.Now()
				if err := prober.Send(dst, msg.Message{Type: msg.Ping, Sender: prober.Self(), Round: uint64(i)}); err != nil {
					res.fail("micro: %s: %v", span, err)
					return
				}
				inSend += time.Since(t0)
				<-pongs
				rtts = append(rtts, us(time.Since(t0)))
			}
		})
		return median(rtts), float64(inSend) / float64(rounds), len(rtts) == rounds
	}

	var echo *transport.Transport
	echo, err = transport.Listen("127.0.0.1:0", transport.Config{}, func(from id.ID, m msg.Message) {
		_ = echo.Send(from, msg.Message{Type: msg.Pong, Sender: echo.Self(), Round: m.Round}) // a lost PONG would hang the loop, which the run's timeout reports
	}, nil)
	if err != nil {
		res.fail("micro: %v", err)
		return
	}
	defer echo.Close()
	pairRTT, sendNs, ok := pingPong("transport.pingpong", prober.Register(echo.Addr()))
	if !ok {
		return
	}
	res.set("transport.pair_rtt_us", pairRTT)
	res.set("transport.send_call_ns", sendNs)

	agent, err := transport.NewAgent("127.0.0.1:0", transport.AgentConfig{})
	if err != nil {
		res.fail("micro: %v", err)
		return
	}
	defer agent.Close()
	probeRTT, _, ok := pingPong("agent.pingpong", prober.Register(agent.Addr()))
	if !ok {
		return
	}
	res.set("agent.probe_rtt_us", probeRTT)
	res.set("agent.actor_overhead_us", probeRTT-pairRTT)

	// Dial: first contact with a fresh endpoint is a synchronous connect.
	var dials []float64
	for i := 0; i < 20; i++ {
		fresh, err := transport.Listen("127.0.0.1:0", transport.Config{}, func(id.ID, msg.Message) {}, nil)
		if err != nil {
			res.fail("micro: %v", err)
			return
		}
		dst := prober.Register(fresh.Addr())
		d := log.timed("transport.Probe", i, 1, func() { err = prober.Probe(dst) })
		fresh.Close()
		if err != nil {
			res.fail("micro: dial: %v", err)
			return
		}
		dials = append(dials, us(d))
	}
	res.set("transport.dial_us", median(dials))
}
