package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hyparview/internal/id"
	"hyparview/internal/metrics"
	"hyparview/internal/rng"
	"hyparview/internal/transport"
)

// tcpSpec is the shape of one real-socket workload. Every AgentConfig and
// transport.Config field not named here keeps its default.
type tcpSpec struct {
	mode         transport.BroadcastMode
	payload      int
	rate         int  // broadcasts per second of schedule, open loop
	singleSource bool // publish from slot 0 only (noise rule 5)
	cyclePeriod  time.Duration
	churn        bool
	floor        float64 // least acceptable delivered_share
}

var tcpSpecs = map[string]tcpSpec{
	"tcp_flood_small": {mode: transport.BroadcastFlood, payload: 64, rate: 200,
		cyclePeriod: 500 * time.Millisecond, floor: 1},
	"tcp_tree_large": {mode: transport.BroadcastPlumtree, payload: 16 << 10, rate: 100,
		singleSource: true, floor: 1},
	"tcp_churn": {mode: transport.BroadcastFlood, payload: 64, rate: 200,
		cyclePeriod: 500 * time.Millisecond, churn: true, floor: 0.99},
}

// Counter indices: the subset of the layers' public counters the per-layer
// metrics are ratios of.
const (
	cFrames = iota
	cOverflowed
	cWrites
	cBatched
	cReads
	cRedials
	cSuspected
	cDrained
	cDelivered
	cDups
	cForwarded
	cSendFails
	cPromotions
	cPeerFailures
	cNeighborRejects
	cIHaves
	cGrafts
	cPrunes
	cTimerFires
	numCounters
)

var counterNames = [numCounters]string{
	"transport.frames_sent", "transport.overflowed", "transport.write_calls", "transport.batched_writes",
	"transport.read_syscalls", "transport.redials", "transport.suspected", "transport.drained",
	"broadcast.delivered", "broadcast.duplicates", "broadcast.forwarded", "broadcast.send_fails",
	"core.promotions", "core.peer_failures", "core.neighbor_rejects",
	"plumtree.ihaves_sent", "plumtree.grafts_sent", "plumtree.prunes_sent", "plumtree.timer_fires",
}

type counters [numCounters]uint64

func readCounters(a *transport.Agent) counters {
	tr, bc, co := a.TransportStats(), a.BroadcastStats(), a.Stats()
	pt, _ := a.PlumtreeStats()
	return counters{
		cFrames: tr.FramesSent, cOverflowed: tr.Overflowed, cWrites: tr.WriteCalls, cBatched: tr.BatchedWrites,
		cReads: tr.ReadSyscalls, cRedials: tr.Redials, cSuspected: tr.Suspected, cDrained: tr.Drained,
		cDelivered: bc.Delivered, cDups: bc.Duplicates, cForwarded: bc.Forwarded, cSendFails: bc.SendFails,
		cPromotions: co.Promotions, cPeerFailures: co.PeerFailures, cNeighborRejects: co.NeighborRejects,
		cIHaves: pt.IHavesSent, cGrafts: pt.GraftsSent, cPrunes: pt.PrunesSent, cTimerFires: pt.TimerFires,
	}
}

func (c counters) named() map[string]int64 {
	out := make(map[string]int64, numCounters)
	for i, v := range c {
		out[counterNames[i]] = int64(v)
	}
	return out
}

// member is one agent instance and its delivery ledger.
type member struct {
	agent      *transport.Agent
	rx         *receiver
	base, last counters // at window start (zero if born later) and at death or window end
	closed     bool
}

// overlay is the population of a TCP workload: a fixed number of slots, each
// holding the agent currently playing that slot.
type overlay struct {
	spec       tcpSpec
	prof       profile
	seed       uint64
	epoch      time.Time
	broadcasts int // warm-up plus window: sizes every ledger
	filler     []byte
	total      atomic.Int64
	slots      []atomic.Pointer[member]
	all        []*member // every instance started; owned by whoever runs setup, then churn, then the report
	joinUs     []float64
	closeMs    []float64
}

func (o *overlay) spawn(slot int) (*member, error) {
	m := &member{rx: newReceiver(slot, o.broadcasts, o.epoch, &o.total)}
	a, err := transport.NewAgent("127.0.0.1:0", transport.AgentConfig{
		CyclePeriod: o.spec.cyclePeriod,
		Broadcast:   o.spec.mode,
		Seed:        o.seed<<16 + uint64(len(o.all)) + 1,
		OnDeliver:   m.rx.deliver,
	})
	if err != nil {
		return nil, fmt.Errorf("agent for slot %d: %w", slot, err)
	}
	m.agent = a
	o.all = append(o.all, m)
	return m, nil
}

func (o *overlay) join(m *member, contact *member) error {
	t0 := time.Now()
	if err := m.agent.Join(contact.agent.Addr()); err != nil {
		return err
	}
	o.joinUs = append(o.joinUs, us(time.Since(t0)))
	return nil
}

func (o *overlay) live() []*member {
	var out []*member
	for _, m := range o.all {
		if !m.closed {
			out = append(out, m)
		}
	}
	return out
}

// closeAll shuts the given members down side by side and records how long
// each Close took.
func (o *overlay) closeAll(ms []*member) {
	took := make([]float64, len(ms))
	var wg sync.WaitGroup
	for i, m := range ms {
		m.closed = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			_ = m.agent.Close() // only ever the listener's close error; the agent is gone either way
			took[i] = float64(time.Since(t0)) / float64(time.Millisecond)
		}()
	}
	wg.Wait()
	o.closeMs = append(o.closeMs, took...)
}

// setup builds the overlay on a fixed schedule, so that its duration is set
// by timers and repeats: paced joins through slot 0, ten manual membership
// cycles, then paced warm-up broadcasts that open every connection, carve the
// Plumtree tree and ratchet the pools to their steady size.
func (o *overlay) setup() error {
	o.slots = make([]atomic.Pointer[member], o.prof.agents)
	for i := range o.slots {
		m, err := o.spawn(i)
		if err != nil {
			return err
		}
		o.slots[i].Store(m)
	}
	next := time.Now()
	step := func(ms int) {
		next = next.Add(time.Duration(ms) * time.Millisecond)
		sleepUntil(next)
	}
	for _, m := range o.all[1:] {
		step(o.prof.joinGapMs)
		if err := o.join(m, o.all[0]); err != nil {
			return err
		}
	}
	for round := 0; round < 10; round++ {
		step(o.prof.cycleGapMs)
		for _, m := range o.all {
			if err := m.agent.Cycle(); err != nil {
				return fmt.Errorf("cycle: %w", err)
			}
		}
	}
	step(o.prof.cycleGapMs)
	gap := time.Second / time.Duration(o.spec.rate)
	if _, err := openLoop(next, gap, o.prof.warmup, 0, nil, o.publisher(0, gap, next, nil)); err != nil {
		return err
	}
	next = next.Add(time.Duration(o.prof.warmup) * gap)
	step(6 * o.prof.cycleGapMs) // let the last warm-up round and any Plumtree repair finish
	want := int64(o.prof.warmup * o.prof.agents)
	for deadline := time.Now().Add(5 * time.Second); o.total.Load() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up incomplete: %d of %d deliveries", o.total.Load(), want)
		}
	}
	return nil
}

// publisher returns the send function of an open loop whose broadcast k has
// sequence number first+k. Publishers rotate over the slots (or stay on slot
// 0); a slot whose agent is not eligible at the due instant is skipped, so no
// broadcast is ever handed to an agent that is being replaced. w, when it is
// the traced window, receives the duration of each Agent.Broadcast call.
func (o *overlay) publisher(first int, gap time.Duration, start time.Time, w *window) func(k int) error {
	startNs := int64(start.Sub(o.epoch))
	return func(k int) error {
		due := startNs + int64(k)*int64(gap)
		slot := 0
		if !o.spec.singleSource {
			slot = k % len(o.slots)
		}
		m := o.slots[slot].Load()
		for tries := 0; due < m.rx.eligible[0] || due >= m.rx.eligible[1]; tries++ {
			if tries == len(o.slots) {
				return fmt.Errorf("broadcast %d: no eligible publisher", k)
			}
			slot = (slot + 1) % len(o.slots)
			m = o.slots[slot].Load()
		}
		buf := make([]byte, o.spec.payload)
		copy(buf[headerLen:], o.filler)
		stamp(buf, uint64(first+k), uint32(slot), due)
		t0 := time.Now()
		if err := m.agent.Broadcast(buf); err != nil {
			return fmt.Errorf("broadcast %d from slot %d: %w", k, slot, err)
		}
		if w != nil && w.callNs != nil {
			w.callNs[k] = int64(time.Since(t0))
		}
		return nil
	}
}

// openLoop calls send(k) at start + k·gap for k in [0, count), whether or not
// earlier sends returned on time: a stall makes later broadcasts late, it does
// not thin the load (noise rule 3). Latency is timed from the due instant, so
// whatever delayed a send — a stall of the overlay or the generator's own
// oversleeping — is charged to the broadcast; late[k] says how late broadcast
// k was handed over. edge, when set, runs at the start of every perSlice-th
// broadcast and once more at the end of the schedule.
func openLoop(start time.Time, gap time.Duration, count, perSlice int, edge func(), send func(k int) error) (late []int64, err error) {
	late = make([]int64, count)
	for k := 0; k < count; k++ {
		due := start.Add(time.Duration(k) * gap)
		sleepUntil(due)
		if edge != nil && k%perSlice == 0 {
			edge()
		}
		late[k] = int64(time.Since(due))
		if err := send(k); err != nil {
			return late, err
		}
	}
	if edge != nil {
		sleepUntil(start.Add(time.Duration(count) * gap))
		edge()
	}
	return late, nil
}

// churnEvent closes the agents in the victim slots at offset at into the
// window and replaces each with a fresh agent.
type churnEvent struct {
	at      time.Duration
	victims []int
}

// planChurn fixes the whole churn schedule from the seed before the window
// opens: an episode every period, the first half a period in, none so late
// that the overlay could not heal inside the window.
func planChurn(r *rng.Rand, slots int, window, period time.Duration) []churnEvent {
	var plan []churnEvent
	for at := period / 2; at+period/2 <= window; at += period {
		plan = append(plan, churnEvent{at: at, victims: r.Perm(slots)[:max(1, slots/32)]})
	}
	return plan
}

// churn plays the plan against the overlay. It owns o.all while it runs.
func (o *overlay) churn(plan []churnEvent, start time.Time, r *rng.Rand, traced bool) (healMs []float64, err error) {
	grace := o.grace()
	for e, ev := range plan {
		sleepUntil(start.Add(ev.at))
		killed := time.Now()
		var victims, survivors []*member
		for slot := range o.slots {
			if m := o.slots[slot].Load(); slices.Contains(ev.victims, slot) {
				victims = append(victims, m)
			} else {
				survivors = append(survivors, m)
			}
		}
		for _, m := range victims {
			m.last = readCounters(m.agent)
		}
		o.closeAll(victims)
		for _, slot := range ev.victims {
			m, err := o.spawn(slot)
			if err != nil {
				return healMs, err
			}
			if err := o.join(m, survivors[r.Intn(len(survivors))]); err != nil {
				return healMs, err
			}
			m.rx.eligible[0] = int64(time.Since(o.epoch)) + grace
			if next := nextChurn(plan[e+1:], slot); next >= 0 {
				m.rx.eligible[1] = int64(start.Add(plan[e+1+next].at).Sub(o.epoch)) - grace
			}
			o.slots[slot].Store(m)
		}
		if traced {
			healMs = append(healMs, o.awaitHeal(victims, survivors, killed, start.Add(ev.at+o.churnPeriod()/2)))
		}
	}
	return healMs, nil
}

func (o *overlay) churnPeriod() time.Duration {
	return time.Duration(o.prof.churnSecs * float64(time.Second))
}

// grace is the eligibility margin around a join and a close, in ns.
func (o *overlay) grace() int64 { return int64(o.prof.graceSecs * float64(time.Second)) }

// nextChurn returns the index in plan of the first event that kills slot, or
// -1.
func nextChurn(plan []churnEvent, slot int) int {
	return slices.IndexFunc(plan, func(ev churnEvent) bool { return slices.Contains(ev.victims, slot) })
}

// awaitHeal polls the survivors' active views every 50 ms until none lists a
// victim, and returns the time since the kill in ms (or the time to the
// deadline, if views had not healed by then).
func (o *overlay) awaitHeal(victims, survivors []*member, killed, deadline time.Time) float64 {
	dead := make([]id.ID, len(victims))
	for i, m := range victims {
		dead[i] = m.agent.Self()
	}
	for {
		stale := false
		for _, m := range survivors {
			for _, p := range m.agent.ActiveView() {
				if slices.Contains(dead, p) {
					stale = true
				}
			}
		}
		if !stale || time.Now().After(deadline) {
			return float64(time.Since(killed)) / float64(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// window is what one measured stretch of schedule produced.
type window struct {
	slices    int
	perSlice  int
	dues      []int64 // scheduled instants: latency, slices and eligibility go by these
	late      []int64
	callNs    []int64
	edgeWall  []time.Time
	edgeCPU   []time.Duration
	edgeTotal []int64
	healMs    []float64
	kills     int
	episodes  int
}

// measure runs one open-loop window of the given number of slices starting
// at sequence number first.
func (o *overlay) measure(first, nSlices int, traced bool) (*window, error) {
	w := &window{slices: nSlices, perSlice: int(float64(o.spec.rate)*o.prof.sliceSecs + 0.5)}
	count := w.slices * w.perSlice
	gap := time.Second / time.Duration(o.spec.rate)
	start := time.Now().Add(time.Millisecond)
	startNs := int64(start.Sub(o.epoch))
	w.dues = make([]int64, count)
	for k := range w.dues {
		w.dues[k] = startNs + int64(k)*int64(gap)
	}
	if traced {
		w.callNs = make([]int64, count)
	}
	edge := func() {
		w.edgeWall = append(w.edgeWall, time.Now())
		w.edgeCPU = append(w.edgeCPU, cpuTime())
		w.edgeTotal = append(w.edgeTotal, o.total.Load())
	}

	var churnErr error
	var wg sync.WaitGroup
	if o.spec.churn {
		r := rng.New(o.seed ^ uint64(first))
		plan := planChurn(r, len(o.slots), time.Duration(count)*gap, o.churnPeriod())
		grace := o.grace()
		for slot := range o.slots {
			if e := nextChurn(plan, slot); e >= 0 {
				o.slots[slot].Load().rx.eligible[1] = int64(start.Add(plan[e].at).Sub(o.epoch)) - grace
			}
		}
		for _, ev := range plan {
			w.kills += len(ev.victims)
		}
		w.episodes = len(plan)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.healMs, churnErr = o.churn(plan, start, r, traced)
		}()
	}
	var err error
	w.late, err = openLoop(start, gap, count, w.perSlice, edge, o.publisher(first, gap, start, w))
	wg.Wait()
	if err == nil {
		err = churnErr
	}
	if err != nil {
		return nil, err
	}
	// Quiesce: the last broadcasts are still in flight. Stop once every slot
	// holds every broadcast, or — under churn, where that never comes true —
	// once nothing new has arrived for half a second.
	want := w.edgeTotal[0] + int64(count*len(o.slots))
	for last, idle := o.total.Load(), 0; last < want && idle < 25; {
		time.Sleep(20 * time.Millisecond)
		if now := o.total.Load(); now != last {
			last, idle = now, 0
		} else {
			idle++
		}
	}
	return w, nil
}

// rates reduces a window's slice edges to deliveries per second and CPU per
// delivery, slice by slice. It reads only what the pacing goroutine wrote.
func (w *window) rates() (goodput, cpuPerD []float64) {
	for s := 0; s < w.slices; s++ {
		d := float64(w.edgeTotal[s+1] - w.edgeTotal[s])
		goodput = append(goodput, d/w.edgeWall[s+1].Sub(w.edgeWall[s]).Seconds())
		if d > 0 {
			cpuPerD = append(cpuPerD, us(w.edgeCPU[s+1]-w.edgeCPU[s])/d)
		}
	}
	return goodput, cpuPerD
}

// latencies is the window's delivery latencies in µs: every (broadcast,
// remote receiver) pair grouped by the slice the broadcast was due in, and
// per broadcast the earliest and the latest delivery.
type latencies struct {
	bySlice     [][]float64
	first, last []float64
	samples     int
}

// latencies reads the delivery ledgers, so every agent must be closed: only
// Close orders the actor goroutine's last write before this read.
func (o *overlay) latencies(w *window, first int) latencies {
	n := len(w.dues)
	t := latencies{bySlice: make([][]float64, w.slices), first: make([]float64, n), last: make([]float64, n)}
	for _, m := range o.all {
		for _, s := range m.rx.samples {
			k := int(s.seq) - first
			if k < 0 || k >= n {
				continue
			}
			l := float64(s.latNs) / 1e3
			t.bySlice[k/w.perSlice] = append(t.bySlice[k/w.perSlice], l)
			if t.first[k] == 0 || l < t.first[k] {
				t.first[k] = l
			}
			t.last[k] = max(t.last[k], l)
			t.samples++
		}
	}
	return t
}

// runTCP runs one real-socket workload start to finish.
func runTCP(name string, prof profile, seed uint64, seconds int, log *spanLog) *result {
	res := newResult()
	spec := tcpSpecs[name]
	traced := log != nil
	baseline := runtime.NumGoroutine()
	// One P: the reference box's two vCPUs are hyperthreads of one core, and
	// with two Ps every hand-off between actors is a cross-thread wake-up
	// whose cost, and whose share of the work, flips from second to second
	// (noise rule 3). The setting is the process's, not the program's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	if spec.churn { // every slice holds one episode, so slices stay comparable
		prof.sliceSecs = prof.churnSecs
	}
	nSlices := int(float64(seconds)/prof.sliceSecs + 0.5)
	refSlices := 0
	if traced {
		refSlices = max(nSlices/3, 2)
	}
	each := int(float64(spec.rate)*prof.sliceSecs + 0.5) // broadcasts per slice
	o := &overlay{spec: spec, prof: prof, seed: seed, epoch: processStart,
		broadcasts: prof.warmup + (refSlices+nSlices)*each,
		filler:     make([]byte, spec.payload-headerLen)}
	fill := rng.New(seed)
	for i := range o.filler {
		o.filler[i] = byte(fill.Uint64())
	}
	defer func() { o.closeAll(o.live()) }()

	if err := o.setup(); err != nil {
		return res.fail("setup: %v", err)
	}
	res.set("setup_s", time.Since(processStart).Seconds())

	// A traced run first measures a short untraced window on the same
	// overlay: the gap between the two is the cost of tracing.
	first := prof.warmup // sequence numbers below it are the warm-up
	var refCPU float64
	if traced {
		ref, err := o.measure(first, refSlices, false)
		if err != nil {
			return res.fail("reference window: %v", err)
		}
		_, cpu := ref.rates()
		refCPU = median(cpu)
		first += len(ref.dues)
		for _, m := range o.live() {
			m.rx.eligible = [2]int64{0, 1 << 62}
			m.base = readCounters(m.agent)
		}
	}
	w, err := o.measure(first, nSlices, traced)
	if err != nil {
		return res.fail("window: %v", err)
	}
	goodput, cpuPerD := w.rates()
	res.set("goodput_dps", median(goodput))
	res.set("cpu_us_per_delivery", median(cpuPerD))
	res.set("peak_rss_mb", peakRSSMB())

	var degree float64
	if traced {
		for _, m := range o.live() {
			m.last = readCounters(m.agent)
			degree += float64(len(m.agent.ActiveView()))
		}
		degree /= float64(len(o.live()))
	}
	var rxs []*receiver
	for _, m := range o.all {
		rxs = append(rxs, m.rx)
	}
	o.closeAll(o.live())
	t := o.latencies(w, first)
	res.set("latency_p50_us", median(perSlice(t.bySlice, 50)))
	res.set("latency_p90_us", median(perSlice(t.bySlice, 90)))
	a := check(rxs, first, w.dues)
	res.Attempted, res.Failed = a.expected, a.expected-a.ok
	res.set("delivered_share", a.share())
	if a.share() < spec.floor || a.duplicate > 0 || a.corrupt > 0 {
		res.fail("delivery: %v, floor %g", a, spec.floor)
	}
	for deadline := time.Now().Add(3 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			res.fail("goroutines: %d left after teardown, %d before setup", runtime.NumGoroutine(), baseline)
			break
		}
	}
	if !traced {
		return res
	}

	o.layers(res, log, w, t, first, degree)
	if refCPU > 0 {
		res.set("bench.trace_overhead_pct", 100*(median(cpuPerD)-refCPU)/refCPU)
	}
	microMsg(res, log, prof, spec)
	microTransport(res, log, prof)
	return res
}

// layers reports the per-layer metrics of a traced window: ratios of the
// layers' own counters over the window, and the agent-level timings the
// ledgers give.
func (o *overlay) layers(res *result, log *spanLog, w *window, t latencies, first int, degree float64) {
	spec := o.spec
	var sum counters
	for _, m := range o.all {
		for i := range sum {
			sum[i] += m.last[i] - m.base[i]
		}
	}
	log.counters("window.counters", sum.named())
	o.spans(log, w, first)
	delivered := float64(w.edgeTotal[w.slices] - w.edgeTotal[0])
	bcasts := float64(len(w.dues))
	per := func(i int, by float64) float64 {
		if by == 0 {
			return 0
		}
		return float64(sum[i]) / by
	}
	res.set("core.join_us", median(o.joinUs))
	res.set("core.heal_ms", median(w.healMs))
	episodes := float64(max(w.episodes, 1))
	res.set("core.promotions", per(cPromotions, episodes))
	res.set("core.peer_failures", per(cPeerFailures, episodes))
	res.set("core.neighbor_rejects", per(cNeighborRejects, episodes))
	res.set("core.active_degree_mean", degree)
	layer := "gossip."
	if spec.mode == transport.BroadcastPlumtree {
		layer = "plumtree."
		res.set("plumtree.ihave_per_delivery", per(cIHaves, delivered))
		res.set("plumtree.grafts_per_broadcast", per(cGrafts, bcasts))
		res.set("plumtree.prunes_per_broadcast", per(cPrunes, bcasts))
		res.set("plumtree.timer_fires_per_broadcast", per(cTimerFires, bcasts))
	} else {
		res.set("gossip.forwards_per_broadcast", per(cForwarded, bcasts))
		res.set("gossip.send_fails", float64(sum[cSendFails]))
	}
	res.set(layer+"dup_per_delivery", per(cDups, delivered))
	res.set("transport.frames_per_delivery", per(cFrames, delivered))
	res.set("transport.frames_per_write", per(cFrames, float64(sum[cWrites])))
	res.set("transport.batched_write_share", per(cBatched, float64(sum[cWrites])))
	res.set("transport.frames_per_read", per(cFrames, float64(sum[cReads])))
	res.set("transport.overflowed", float64(sum[cOverflowed]))
	res.set("transport.redials_per_kill", per(cRedials, float64(w.kills)))
	res.set("transport.drained_per_kill", per(cDrained, float64(w.kills)))
	res.set("transport.suspected", float64(sum[cSuspected]))
	res.set("transport.close_ms", median(o.closeMs))
	calls, late := make([]float64, len(w.callNs)), make([]float64, len(w.late))
	for i := range calls {
		calls[i], late[i] = float64(w.callNs[i])/1e3, float64(w.late[i])/1e3
	}
	res.set("agent.broadcast_call_us", median(calls))
	res.set("agent.first_delivery_p50_us", median(t.first))
	res.set("agent.completion_p50_us", median(t.last))
	res.set("agent.latency_p99_us", median(perSlice(t.bySlice, 99)))
	res.set("bench.gen_late_p99_us", metrics.Percentile(late, 99))
	res.set("bench.samples", float64(t.samples))
}

// spans turns the window's ledgers into the span tree of every broadcast:
// root bench.broadcast (due → last delivery), child agent.Broadcast (call →
// return) and one deliver child per remote receiver.
func (o *overlay) spans(log *spanLog, w *window, first int) {
	roots := make([]int, len(w.dues))
	for k, due := range w.dues {
		roots[k] = log.add("bench.broadcast", due, due, 0, first+k)
		sent := due + w.late[k]
		log.add("agent.Broadcast", sent, sent+w.callNs[k], roots[k], first+k)
	}
	for _, m := range o.all {
		for _, s := range m.rx.samples {
			k := int(s.seq) - first
			if k < 0 || k >= len(roots) {
				continue
			}
			end := w.dues[k] + s.latNs
			log.add("deliver", w.dues[k], end, roots[k], int(s.seq))
			if root := &log.spans[roots[k]-1]; end > root.EndNs {
				root.EndNs = end
			}
		}
	}
}
