package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"
	"time"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestContractAgreesWithList holds BENCHMARK.json and the program's own
// vocabulary (what -list prints) together.
func TestContractAgreesWithList(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %v\n list %v", c.Workloads, workloads)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n list %v", c.PerLayer, perLayer)
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d in json, %d in list", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range c.EndToEnd {
		if m.metricDef != endToEnd[i] || m.Bound != bounds[m.Name] {
			t.Errorf("end_to_end[%d]: json %+v, list %+v bound %g", i, m, endToEnd[i], bounds[m.Name])
		}
	}
	if !reflect.DeepEqual(c.Paths, []string{"bench"}) || c.RunSeconds < 15 {
		t.Errorf("paths %v, run_seconds %d: want [bench] and at least 15 slices", c.Paths, c.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

// quickRun runs one workload traced at the quick profile and returns the
// result with the lines report printed for both kinds.
func quickRun(t *testing.T, workload string, seed uint64) (*result, *spanLog, []map[string]any) {
	t.Helper()
	log := &spanLog{epoch: processStart}
	res := runWorkload(workload, quickProfile, seed, 1, log)
	if !res.Correct {
		t.Fatalf("%s: incorrect run: %v", workload, res.failures)
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, traced := range []bool{false, true} {
		kind := *res // report trims its argument to one kind
		report(w, workload, &kind, traced)
	}
	w.Flush()
	var lines []map[string]any
	for _, l := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var line map[string]any
		if err := json.Unmarshal(l, &line); err != nil {
			t.Fatalf("%s: line %q: %v", workload, l, err)
		}
		lines = append(lines, line)
	}
	return res, log, lines
}

// TestEveryMetricOncePerWorkload runs all five workloads at the quick
// profile: every metric of BENCHMARK.json appears exactly once per workload
// with a finite value, every end-to-end metric is non-zero, and the span log
// holds one bench.broadcast root per broadcast sent.
func TestEveryMetricOncePerWorkload(t *testing.T) {
	for _, wl := range workloads {
		res, log, lines := quickRun(t, wl.Name, 1)
		count := map[string]int{}
		for _, l := range lines {
			v := l["value"].(float64)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %v is not finite", wl.Name, l["metric"])
			}
			count[l["metric"].(string)]++
		}
		for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			if count[m.Name] != 1 {
				t.Errorf("%s: %s printed %d times", wl.Name, m.Name, count[m.Name])
			}
		}
		for _, m := range endToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %g, want positive", wl.Name, m.Name, res.Metrics[m.Name].Value)
			}
		}
		if res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", wl.Name, res.Attempted, res.Failed)
		}
		roots, root := 0, "sim.Broadcast"
		sent := int(res.Metrics["bench.samples"].Value)
		if spec, ok := tcpSpecs[wl.Name]; ok {
			root = "bench.broadcast"
			sent = spec.rate // one second of schedule
			if res.Metrics["bench.gen_late_p99_us"].Value <= 0 {
				t.Errorf("%s: generator lateness not reported", wl.Name)
			}
		}
		for _, s := range log.spans {
			if s.Name == root {
				roots++
			}
		}
		if roots != sent {
			t.Errorf("%s: %d %s spans for %d broadcasts", wl.Name, roots, root, sent)
		}
	}
}

// TestSimSeedDiscipline: simulator work is a fixed count per seed, so the
// counts repeat exactly and a different seed gives different ones.
func TestSimSeedDiscipline(t *testing.T) {
	exact := []string{"netsim.events_per_broadcast", "core.heal_cycles", "delivered_share"}
	for name := range simSpecs {
		a, _, _ := quickRun(t, name, 7)
		b, _, _ := quickRun(t, name, 7)
		c, _, _ := quickRun(t, name, 8)
		for _, m := range exact {
			if a.Metrics[m] != b.Metrics[m] {
				t.Errorf("%s: %s = %v then %v on one seed", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
		if a.Metrics[exact[0]] == c.Metrics[exact[0]] {
			t.Errorf("%s: %s did not move with the seed", name, exact[0])
		}
	}
}

// TestMedianOfSlices: a burst that covers fewer than half the slices does not
// move the workload's value; one that covers most of them does, so a
// regression that hits most of the window cannot hide.
func TestMedianOfSlices(t *testing.T) {
	calm := []float64{10, 11, 12, 13, 14}
	burst := []float64{900, 1000, 1100, 1200, 1300}
	slices := [][]float64{calm, burst, calm, calm, nil, burst, calm, burst, calm}
	if got := median(perSlice(slices, 50)); got != 12 {
		t.Errorf("median of slice medians with 3 of 8 slices disturbed = %g, want 12", got)
	}
	if got := median(perSlice(slices, 100)); got != 14 {
		t.Errorf("median of slice maxima = %g, want 14", got)
	}
	slices = [][]float64{burst, calm, burst, burst, calm, burst, burst}
	if got := median(perSlice(slices, 50)); got != 1100 {
		t.Errorf("median of slice medians with 5 of 7 slices disturbed = %g, want 1100", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 2.0/3 {
		t.Errorf("spread = %g, want 2/3", got)
	}
}

// TestYardstickIsFixedWork: two yardsticks of one size do exactly the same
// work whatever the clock says, and a reading at the nominal cost is a host
// factor of 1.
func TestYardstickIsFixedWork(t *testing.T) {
	a, b := newFloodYard(500), newFloodYard(500)
	for i := 0; i < 3; i++ {
		if cost := a.gauge(); cost <= 0 || math.IsInf(cost, 0) {
			t.Fatalf("gauge reading %g", cost)
		}
		b.gauge()
	}
	if a.seq != b.seq || a.round != b.round || a.now != b.now || a.round < 2 {
		t.Errorf("yardsticks diverged or never finished a round: %+v vs %+v", [3]uint64{a.seq, uint64(a.round), a.now}, [3]uint64{b.seq, uint64(b.round), b.now})
	}
	if got := hostFactor([]float64{2 * yardNominalNs, yardNominalNs, 3 * yardNominalNs}); got != 2 {
		t.Errorf("host factor = %g, want 2", got)
	}
}

// TestCheckCatchesEachFault feeds three receivers four broadcasts and breaks
// one delivery in each possible way.
func TestCheckCatchesEachFault(t *testing.T) {
	var total atomic.Int64
	rxs := make([]*receiver, 3)
	for i := range rxs {
		rxs[i] = newReceiver(i, 4, time.Now(), &total)
	}
	payload := func(seq int) []byte {
		buf := make([]byte, 64)
		stamp(buf, uint64(seq), 0, int64(seq)*1000)
		return buf
	}
	for seq := 0; seq < 4; seq++ {
		for i, r := range rxs {
			p := payload(seq)
			switch {
			case seq == 1 && i == 1: // corrupted in flight
				p[40] ^= 1
			case seq == 2 && i == 2: // never arrives
				continue
			case seq == 3 && i == 0: // arrives twice
				r.deliver(p)
			}
			r.deliver(p)
		}
	}
	dues := []int64{0, 1000, 2000, 3000}
	a := check(rxs, 0, dues)
	want := audit{expected: 12, ok: 9, missing: 2, duplicate: 1, corrupt: 1}
	if a != want {
		t.Errorf("audit = %+v, want %+v", a, want)
	}
	if got := total.Load(); got != 10 {
		t.Errorf("first copies = %d, want 10", got)
	}
	// A receiver that joined late is not expected to hold earlier broadcasts.
	rxs[2].eligible[0] = 2500
	if a := check(rxs, 0, dues); a.expected != 9 || a.missing != 1 {
		t.Errorf("with a late joiner: %+v, want 9 expected and 1 missing", a)
	}
}

// TestOpenLoopChargesAStall: a send that blocks for 50 ms makes the next
// broadcasts late, and because their latency is timed from the instant they
// were due the stall shows up in it — a closed loop would have hidden it.
func TestOpenLoopChargesAStall(t *testing.T) {
	const gap, stall = 5 * time.Millisecond, 50 * time.Millisecond
	var total atomic.Int64
	epoch := time.Now()
	rx := newReceiver(1, 20, epoch, &total)
	start := time.Now().Add(gap)
	late, err := openLoop(start, gap, 20, 0, nil, func(k int) error {
		if k == 5 {
			time.Sleep(stall)
		}
		buf := make([]byte, headerLen)
		stamp(buf, uint64(k), 0, int64(start.Add(time.Duration(k)*gap).Sub(epoch)))
		rx.deliver(buf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rx.samples) != 20 {
		t.Fatalf("%d samples, want 20", len(rx.samples))
	}
	// Broadcast 6 fell due 5 ms into the stall: 45 ms late, minus slack. Only
	// lower bounds are asserted, so a busy machine cannot fail the test.
	lat6, late6 := time.Duration(rx.samples[6].latNs), time.Duration(late[6])
	if late6 < 40*time.Millisecond || lat6 < late6 {
		t.Errorf("broadcast 6: latency %v, lateness %v, want latency ≥ lateness ≥ 40ms", lat6, late6)
	}
}
