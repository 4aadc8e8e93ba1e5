// Command benchdelta compares `go test -bench` output against the committed
// BENCH_*.json baselines and emits a benchstat-style delta table. It is
// warn-only by design: regressions print GitHub Actions ::warning::
// annotations and the exit status is always 0, because the CI runners'
// wall-clock noise (shared vCPUs) makes a hard gate flaky — the committed
// baselines move only when a PR deliberately re-records them.
//
// A baseline datapoint is compared on the first metric it carries, in order:
// events_per_sec (higher is better), msgs_per_sec (higher is better), then
// ns_per_op (lower is better). That lets one tool gate the simulator suites,
// the pub/sub workload suite, and the transport suite's latency and
// throughput families alike.
//
// Usage:
//
//	go run ./scripts/benchdelta -baseline BENCH_sim.json bench-sim.txt bench-cluster.txt
//	go run ./scripts/benchdelta -baseline BENCH_transport.json bench-transport.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
)

// benchLine matches one benchmark result line, capturing the name (subtest
// paths like "BenchmarkBroadcastThroughput/agents=8" included, the -N
// GOMAXPROCS suffix stripped), the ns/op figure, and the trailing custom
// metrics, e.g.
// "BenchmarkCluster100k-4  20  377255566 ns/op  1050251 events/sec ...".
var benchLine = regexp.MustCompile(`^(Benchmark[\w/=.]+?)(?:-\d+)?\s+\d+\s+(\S+)\s+ns/op(.*)$`)

// metricPair matches one "<value> <unit>" custom metric after ns/op.
var metricPair = regexp.MustCompile(`(\S+)\s+([\w/]+)`)

// baseline is the subset of the BENCH_*.json files this tool consumes.
type baseline struct {
	Datapoints []struct {
		Name         string  `json:"name"`
		EventsPerSec float64 `json:"events_per_sec"`
		MsgsPerSec   float64 `json:"msgs_per_sec"`
		NsPerOp      float64 `json:"ns_per_op"`
	} `json:"datapoints"`
}

// refPoint is one comparable baseline value: the metric's unit label, the
// committed value, and its direction.
type refPoint struct {
	unit        string
	want        float64
	lowerBetter bool
}

// warnBelow is the fraction of the committed baseline a measurement may drop
// to before a warning is emitted; generous because CI machines are noisy.
// Lower-is-better metrics warn symmetrically, at want/warnBelow.
const warnBelow = 0.70

func main() {
	baselinePath := flag.String("baseline", "BENCH_sim.json", "committed baseline JSON")
	flag.Parse()

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Printf("::warning::benchdelta: %v (skipping comparison)\n", err)
		return
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Printf("::warning::benchdelta: parse %s: %v\n", *baselinePath, err)
		return
	}
	ref := map[string]refPoint{}
	for _, d := range base.Datapoints {
		switch {
		case d.EventsPerSec > 0:
			ref[d.Name] = refPoint{unit: "events/sec", want: d.EventsPerSec}
		case d.MsgsPerSec > 0:
			ref[d.Name] = refPoint{unit: "msgs/sec", want: d.MsgsPerSec}
		case d.NsPerOp > 0:
			ref[d.Name] = refPoint{unit: "ns/op", want: d.NsPerOp, lowerBetter: true}
		}
	}

	fmt.Printf("%-44s %14s %14s %8s\n", "benchmark", "baseline", "this run", "delta")
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Printf("::warning::benchdelta: %v\n", err)
			continue
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			m := benchLine.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			name := m[1]
			rp, ok := ref[name]
			if !ok {
				continue
			}
			got, ok := measured(rp.unit, m[2], m[3])
			if !ok {
				continue
			}
			delta, regressed := rp.compare(got)
			fmt.Printf("%-44s %11.0f %s %11.0f %s %+7.1f%%\n", name, rp.want, rp.unit, got, rp.unit, delta)
			if regressed {
				fmt.Printf("::warning::%s: %.0f %s is %.0f%% worse than the committed baseline %.0f (threshold %.0f%%)\n",
					name, got, rp.unit, -delta, rp.want, (1-warnBelow)*100)
			}
		}
		f.Close()
	}
}

// compare returns how far got is from the committed value, in percent and
// signed so that positive always means improved, and whether it is past the
// warning threshold.
func (rp refPoint) compare(got float64) (delta float64, regressed bool) {
	delta = (got - rp.want) / rp.want * 100
	if rp.lowerBetter {
		return -delta, got > rp.want/warnBelow
	}
	return delta, got < rp.want*warnBelow
}

// measured extracts the value of the wanted unit from one bench line: ns/op
// comes from its fixed column, anything else from the trailing custom-metric
// pairs.
func measured(unit, nsField, rest string) (float64, bool) {
	if unit == "ns/op" {
		v, err := strconv.ParseFloat(nsField, 64)
		return v, err == nil
	}
	for _, p := range metricPair.FindAllStringSubmatch(rest, -1) {
		if p[2] == unit {
			v, err := strconv.ParseFloat(p[1], 64)
			return v, err == nil
		}
	}
	return 0, false
}
