package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"hyparview/internal/core"
	"hyparview/internal/id"
	"hyparview/internal/metrics"
	"hyparview/internal/sim"
)

// simSpec is the shape of one simulator workload. Every sim.Options field
// not named here keeps its default.
type simSpec struct {
	shards   int
	massfail bool
	floor    float64 // least acceptable reliability
}

var simSpecs = map[string]simSpec{
	"sim_flood_sharded": {shards: 2, floor: 1},
	"sim_massfail_heap": {shards: 1, massfail: true, floor: 0.98},
}

const (
	// floodSlices is how many slices a flood window is cut into (noise rule 2).
	floodSlices = 40
	// strandedCeiling is the largest share of a mass-failure window's
	// broadcasts that may come from a source cut off from the giant component
	// (measured 1.7–2.7%).
	strandedCeiling = 0.05
)

// simRun is one measured stretch of simulator work, cut into slices.
type simRun struct {
	c     *sim.Cluster
	log   *spanLog
	gauge *hostGauge

	lat    [][]float64 // µs per Cluster.Broadcast call as measured, by slice
	rels   []float64   // reliability of every broadcast
	events uint64      // netsim deliveries inside Broadcast calls

	// Per slice: the host factor, and three numbers already divided (or, for
	// the rate, multiplied) by it.
	factor, goodput, cpuPerD, nsPerEvent []float64

	// The open slice: wall and CPU time spent inside the program.
	wall, cpu time.Duration

	// Mass-failure episodes only.
	healCycles, healMs, failReviveUs, cycleUs, cycleEvents []float64
}

// work runs fn, which calls into the program, and charges its wall and CPU
// time to the open slice. Yardstick readings and the benchmark's own
// bookkeeping stay outside.
func (r *simRun) work(fn func()) time.Duration {
	wall, cpu := time.Now(), cpuTime()
	fn()
	d := time.Since(wall)
	r.wall += d
	r.cpu += cpuTime() - cpu
	r.gauge.worked(d)
	return d
}

// broadcast times one Cluster.Broadcast, fully drained, into slice s.
func (r *simRun) broadcast(s int) float64 {
	before := r.c.Sim.Stats().Delivered
	var rel float64
	r.work(func() {
		d := r.log.timed("sim.Broadcast", len(r.rels), 1, func() { rel = r.c.Broadcast() })
		r.lat[s] = append(r.lat[s], us(d))
	})
	r.events += r.c.Sim.Stats().Delivered - before
	r.rels = append(r.rels, rel)
	return rel
}

// latency is the p-th percentile of the Broadcast calls of every slice, at
// nominal host speed.
func (r *simRun) latency(p float64) []float64 {
	per := perSlice(r.lat, p) // no slice of a simulator run is empty
	for s := range per {
		per[s] /= r.factor[s]
	}
	return per
}

// slices runs body once per slice and reduces what the slice charged to
// deliveries per second and CPU per delivery at nominal host speed. A slice's
// host factor comes from the readings taken inside it, the one that closed
// the slice before it and the one that closes it.
func (r *simRun) slices(n int, body func(s int)) {
	r.lat = make([][]float64, n)
	r.gauge.read()
	for s := 0; s < n; s++ {
		r.wall, r.cpu = 0, 0
		r.gauge.readings = r.gauge.readings[len(r.gauge.readings)-1:]
		delivered := r.c.Sim.Stats().Delivered
		body(s)
		r.gauge.read()
		d := float64(r.c.Sim.Stats().Delivered - delivered)
		h := hostFactor(r.gauge.readings)
		r.factor = append(r.factor, h)
		r.goodput = append(r.goodput, d/r.wall.Seconds()*h)
		r.cpuPerD = append(r.cpuPerD, us(r.cpu)/d/h)
		r.nsPerEvent = append(r.nsPerEvent, float64(r.wall)/d/h)
	}
}

// episode is the paper's headline, made repeatable: kill 80% of the live
// nodes, broadcast through the wreckage, let membership cycles repair it,
// then restart the dead so the next episode begins on a full overlay.
//
// Sim.Revive alone resumes a node with the views it crashed with, while the
// survivors have long dropped it; a restarted process has lost its sockets,
// so each revived node is also told that its active links are down and
// rebuilds them through NEIGHBOR requests. Without that the overlay decays
// from episode to episode (see README, "Findings").
func (r *simRun) episode(s int) {
	c, n := r.c, float64(r.c.Opts.N)
	start := time.Now()
	spent := r.work(func() { r.log.timed("sim.FailFraction", s, 1, func() { c.FailFraction(0.8) }) })
	var dead []id.ID
	for _, node := range c.IDs() {
		if !c.Sim.Alive(node) {
			dead = append(dead, node)
		}
	}
	healedAt, healedAfter := time.Duration(0), 6
	note := func(cycles int, rel float64) {
		if rel == 1 && healedAfter == 6 {
			healedAt, healedAfter = time.Since(start), cycles
		}
	}
	for i := 0; i < 10; i++ {
		note(0, r.broadcast(s))
	}
	for cycle := 1; cycle <= 5; cycle++ {
		r.work(func() { r.log.timed("sim.Stabilize", s, 1, func() { c.Stabilize(1) }) })
		for i := 0; i < 4; i++ {
			note(cycle, r.broadcast(s))
		}
	}
	if healedAfter == 6 {
		healedAt = time.Since(start)
	}
	spent += r.work(func() {
		r.log.timed("sim.Revive", s, len(dead), func() {
			for _, node := range dead {
				c.Sim.Revive(node)
			}
			for _, node := range dead {
				m := c.Membership(node)
				for _, p := range m.Neighbors() {
					m.OnPeerDown(p)
				}
			}
			c.Sim.Drain()
		})
	})
	before := c.Sim.Stats().Delivered
	cycles := r.work(func() { r.log.timed("sim.Stabilize", s, 5, func() { c.Stabilize(5) }) })
	r.cycleEvents = append(r.cycleEvents, float64(c.Sim.Stats().Delivered-before)/5/n)
	r.cycleUs = append(r.cycleUs, us(cycles)/5/n)
	r.failReviveUs = append(r.failReviveUs, us(spent))
	r.healCycles = append(r.healCycles, float64(healedAfter))
	r.healMs = append(r.healMs, float64(healedAt)/float64(time.Millisecond))
}

// run measures units of work: broadcasts on a flood, cut into floodSlices
// slices; on massfail one episode to a slice.
func (r *simRun) run(massfail bool, units int) {
	if massfail {
		r.slices(units, r.episode)
		return
	}
	per := units / floodSlices
	r.slices(floodSlices, func(s int) {
		for i := 0; i < per; i++ {
			r.broadcast(s)
		}
	})
}

// stackTotals sums the broadcast-layer and HyParView counters over the whole
// population.
type stackTotals struct {
	delivered, dups, forwarded, sendFails     uint64
	promotions, peerFailures, neighborRejects uint64
}

func totals(c *sim.Cluster) stackTotals {
	var t stackTotals
	t.delivered, t.dups, t.forwarded, t.sendFails = c.CounterTotals()
	for _, node := range c.IDs() {
		st := c.Membership(node).(*core.Node).Stats()
		t.promotions += st.Promotions
		t.peerFailures += st.PeerFailures
		t.neighborRejects += st.NeighborRejects
	}
	return t
}

// runSim runs one simulator workload start to finish. Work is a fixed count
// for a given -seconds, so event counts and reliability repeat exactly per
// seed and only the clock varies (noise rule 6).
func runSim(name string, prof profile, seed uint64, seconds int, log *spanLog) *result {
	res := newResult()
	spec := simSpecs[name]
	traced := log != nil
	units := max(floodSlices, prof.floodPerS*seconds/floodSlices*floodSlices)
	if spec.massfail {
		units = max(4, int(prof.episodes*float64(seconds)+0.5))
	}

	// Setup is timed stage by stage with yardstick readings between the
	// stages; Stabilize(50) is run as fifty times Stabilize(1), which is the
	// same fifty cycles, so that the readings are spread through it.
	gauge := &hostGauge{yard: newFloodYard(prof.simN)}
	gauge.read()
	stage := func(name string, count int, fn func()) time.Duration {
		d := log.timed(name, 0, count, fn)
		gauge.worked(d)
		return d
	}
	var c *sim.Cluster
	build := stage("sim.NewCluster", prof.simN, func() {
		c = sim.NewCluster(sim.HyParView, sim.Options{N: prof.simN, Seed: seed, Shards: spec.shards})
	})
	built := c.Sim.Stats().Delivered
	var stabilize time.Duration
	for i := 0; i < 50; i++ {
		stabilize += stage("sim.Stabilize", 1, func() { c.Stabilize(1) })
	}
	stabilized := c.Sim.Stats().Delivered
	warm := stage("sim.warm", 3, func() {
		for i := 0; i < 3; i++ {
			c.Broadcast()
		}
	})
	gauge.read()
	setupFactor := hostFactor(gauge.readings)
	res.set("setup_s", (build+stabilize+warm).Seconds()/setupFactor)

	var heapPerNode, refCPU float64
	var mem0, mem1 runtime.MemStats
	var t0 stackTotals
	if traced {
		runtime.GC()
		runtime.ReadMemStats(&mem0)
		heapPerNode = float64(mem0.HeapAlloc) / float64(prof.simN)
		ref := &simRun{c: c, gauge: gauge}
		ref.run(spec.massfail, max(units/4, 2))
		refCPU = median(ref.cpuPerD)
		runtime.ReadMemStats(&mem0)
		t0 = totals(c)
	}
	stats0 := c.Sim.Stats()
	r := &simRun{c: c, log: log, gauge: gauge}
	r.run(spec.massfail, units)
	stats1 := c.Sim.Stats()
	if traced {
		runtime.ReadMemStats(&mem1)
	}

	fmt.Fprintf(os.Stderr, "bench: %s: host factor %.3f over the window (quartiles %.3f–%.3f), %.3f over setup\n", name,
		median(r.factor), metrics.Percentile(r.factor, 25), metrics.Percentile(r.factor, 75), setupFactor)
	res.set("latency_p50_us", median(r.latency(50)))
	res.set("latency_p90_us", median(r.latency(90)))
	res.set("goodput_dps", median(r.goodput))
	res.set("cpu_us_per_delivery", median(r.cpuPerD))
	res.set("peak_rss_mb", peakRSSMB())
	// A source cut off from the giant component (in the extreme, one whose
	// five neighbours all died) has no overlay to broadcast over until it
	// repairs: its broadcast reaches nobody, a binary event that would make
	// the mean jump from seed to seed. Such broadcasts are counted apart and
	// held to a ceiling of their own instead of being averaged in.
	var share float64
	stranded := 0
	for _, rel := range r.rels {
		if rel < 0.5 {
			stranded++
			continue
		}
		share += rel
		if rel < 1 && !spec.massfail { // after a kill, falling short of 1 is the scenario, not a failure
			res.Failed++
		}
	}
	res.Attempted = len(r.rels)
	share /= float64(len(r.rels) - stranded)
	res.set("delivered_share", share)
	if share < spec.floor {
		res.fail("delivery: mean reliability %.5f over %d broadcasts, floor %g", share, len(r.rels)-stranded, spec.floor)
	}
	if ceiling := strandedCeiling * float64(len(r.rels)); float64(stranded) > ceiling {
		res.Failed += stranded
		res.fail("delivery: %d of %d broadcasts came from stranded sources, ceiling %.0f", stranded, len(r.rels), ceiling)
	}
	if !traced {
		return res
	}

	bcasts := float64(len(r.rels))
	t1 := totals(c)
	episodes := 1.0
	if spec.massfail {
		episodes = float64(units)
	}
	var degree float64
	for _, node := range c.Sim.AliveIDs() {
		degree += float64(len(c.Membership(node).Neighbors()))
	}
	n := float64(prof.simN)
	res.set("core.join_us", us(build)/n)
	res.set("core.cycle_us_per_node", us(stabilize)/50/n)
	res.set("core.events_per_cycle_per_node", float64(stabilized-built)/50/n)
	if spec.massfail {
		res.set("core.cycle_us_per_node", median(r.cycleUs))
		res.set("core.events_per_cycle_per_node", median(r.cycleEvents))
		res.set("core.heal_ms", median(r.healMs))
		res.set("core.heal_cycles", median(r.healCycles))
		res.set("netsim.fail_revive_us", median(r.failReviveUs))
	}
	res.set("core.promotions", float64(t1.promotions-t0.promotions)/episodes)
	res.set("core.peer_failures", float64(t1.peerFailures-t0.peerFailures)/episodes)
	res.set("core.neighbor_rejects", float64(t1.neighborRejects-t0.neighborRejects)/episodes)
	res.set("core.active_degree_mean", degree/float64(c.Sim.AliveCount()))
	res.set("gossip.dup_per_delivery", float64(t1.dups-t0.dups)/float64(t1.delivered-t0.delivered))
	res.set("gossip.forwards_per_broadcast", float64(t1.forwarded-t0.forwarded)/bcasts)
	res.set("gossip.send_fails", float64(t1.sendFails-t0.sendFails))
	res.set("netsim.ns_per_event", median(r.nsPerEvent))
	res.set("netsim.events_per_broadcast", float64(r.events)/bcasts)
	res.set("netsim.allocs_per_broadcast", float64(mem1.Mallocs-mem0.Mallocs)/bcasts)
	res.set("netsim.heap_bytes_per_node", heapPerNode)
	res.set("netsim.build_us_per_node", us(build)/n)
	res.set("netsim.dropped", float64(stats1.Dropped-stats0.Dropped))
	res.set("netsim.overflowed", float64(stats1.Overflowed-stats0.Overflowed))
	res.set("sim.build_s", build.Seconds())
	res.set("sim.stabilize_s", stabilize.Seconds())
	res.set("bench.samples", bcasts)
	res.set("bench.stranded_sources", float64(stranded))
	res.set("bench.host_factor", median(r.factor))
	res.set("bench.trace_overhead_pct", 100*(median(r.cpuPerD)-refCPU)/refCPU)
	log.counters("window.counters", map[string]int64{
		"netsim.delivered": int64(stats1.Delivered - stats0.Delivered),
		"netsim.sent":      int64(stats1.Sent - stats0.Sent),
		"netsim.dropped":   int64(stats1.Dropped - stats0.Dropped),
		"gossip.forwarded": int64(t1.forwarded - t0.forwarded),
	})
	microPrimitives(res, log, prof)
	return res
}
