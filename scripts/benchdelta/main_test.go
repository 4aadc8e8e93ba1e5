package main

import "testing"

// TestBenchLine pins the line parser the CI annotations hang off: which lines
// are benchmark results, what the benchmark is called once the -N GOMAXPROCS
// suffix is gone (subtest paths kept), and which figure answers for a unit.
func TestBenchLine(t *testing.T) {
	for _, tc := range []struct {
		line  string
		name  string // "" means: not a result line
		unit  string
		want  float64
		found bool
	}{
		{line: "BenchmarkEngine10k-4   \t      20\t  52123456 ns/op\t   1257000 events/sec",
			name: "BenchmarkEngine10k", unit: "events/sec", want: 1257000, found: true},
		{line: "BenchmarkEngine10k   \t      20\t  52123456 ns/op\t   1257000 events/sec",
			name: "BenchmarkEngine10k", unit: "ns/op", want: 52123456, found: true},
		{line: "BenchmarkCluster1M/shards=4-16  2  2412345678 ns/op  1960000 events/sec  7012 bytes/node  0 B/op  0 allocs/op",
			name: "BenchmarkCluster1M/shards=4", unit: "events/sec", want: 1960000, found: true},
		{line: "BenchmarkBroadcastThroughput/agents=8-2  50  1234.5 ns/op  81000 msgs/sec",
			name: "BenchmarkBroadcastThroughput/agents=8", unit: "msgs/sec", want: 81000, found: true},
		{line: "BenchmarkCluster10k/shards=2-2  10  9500000 ns/op  4100000 events/sec  6280 bytes/node",
			name: "BenchmarkCluster10k/shards=2", unit: "bytes/node", want: 6280, found: true},
		// A name ending in digits keeps them: only a -N suffix is the cpu count.
		{line: "BenchmarkPubSub10k-2  5  99 ns/op", name: "BenchmarkPubSub10k", unit: "ns/op", want: 99, found: true},
		// The wanted unit is absent: no comparison, no crash.
		{line: "BenchmarkEngine10k-4  20  52123456 ns/op", name: "BenchmarkEngine10k", unit: "events/sec"},
		{line: "BenchmarkEngine10k-4  20  52123456 ns/op  fast events/sec", name: "BenchmarkEngine10k", unit: "events/sec"},
		{line: "ok  \thyparview/internal/netsim\t12.3s"},
		{line: "goos: linux"},
		{line: "--- BENCH: BenchmarkEngine10k-4"},
		{line: "    BenchmarkEngine10k-4  20  52123456 ns/op"}, // indented: a log line, not a result
	} {
		m := benchLine.FindStringSubmatch(tc.line)
		if tc.name == "" {
			if m != nil {
				t.Errorf("%q parsed as a result line (%q)", tc.line, m[1])
			}
			continue
		}
		if m == nil {
			t.Errorf("%q did not parse as a result line", tc.line)
			continue
		}
		if m[1] != tc.name {
			t.Errorf("%q: name %q, want %q", tc.line, m[1], tc.name)
		}
		got, found := measured(tc.unit, m[2], m[3])
		if found != tc.found || got != tc.want {
			t.Errorf("%q: %s = (%v, %v), want (%v, %v)", tc.line, tc.unit, got, found, tc.want, tc.found)
		}
	}
}

// TestCompareIsDirectionAware: a positive delta always means better, and the
// warning fires at 70% of a higher-is-better baseline and at 1/0.7 of a
// lower-is-better one.
func TestCompareIsDirectionAware(t *testing.T) {
	rate := refPoint{unit: "events/sec", want: 1000}
	cost := refPoint{unit: "ns/op", want: 1000, lowerBetter: true}
	for _, tc := range []struct {
		rp        refPoint
		got       float64
		delta     float64
		regressed bool
	}{
		{rate, 1200, +20, false},
		{rate, 700, -30, false}, // exactly at the threshold: not yet
		{rate, 699, -30.1, true},
		{cost, 800, +20, false},
		{cost, 1400, -40, false},
		{cost, 1429, -42.9, true}, // past 1000/0.7 = 1428.6
	} {
		delta, regressed := tc.rp.compare(tc.got)
		if d := delta - tc.delta; d < -1e-9 || d > 1e-9 || regressed != tc.regressed {
			t.Errorf("%s baseline %v, got %v: (%+.1f%%, regressed=%v), want (%+.1f%%, regressed=%v)",
				tc.rp.unit, tc.rp.want, tc.got, delta, regressed, tc.delta, tc.regressed)
		}
	}
}
