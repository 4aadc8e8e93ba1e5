package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// bounds is how far each end-to-end metric may worsen before it counts as a
// regression, as a share of the reference median; the A/A gap and the spread
// of repeated runs must stay inside it. BENCHMARK.json carries the same
// numbers, and README.md ("Bounds") says what they were measured against.
var bounds = map[string]float64{
	"setup_s": 0.25, "latency_p50_us": 0.20, "latency_p90_us": 0.25, "goodput_dps": 0.20,
	"cpu_us_per_delivery": 0.25, "peak_rss_mb": 0.15, "delivered_share": 0.005,
}

// runAA measures the benchmark against itself the way a gate would: n passes
// in each of two interleaved sets (A B A B …) of this one binary, every pass
// on a seed of its own. For every (workload, end-to-end metric) it prints
// both medians, the gap between them as a share of A's, and the
// interquartile spread as a share of the median — of each set and of all 2n
// runs together, which with n = 5 is the ten-run spread a gate takes. A
// pairing passes when the gap, in either direction (in an A/A a gain is the
// same noise as a loss), and the spread of all runs stay inside the bound.
func runAA(n int, seed uint64, seconds int) int {
	fmt.Println(envLine())
	values := map[string]*[2][]float64{} // workload/metric → set → values
	for pass := 0; pass < 2*n; pass++ {
		set := pass % 2
		for _, w := range workloads {
			res, err := child(w.Name, seed+uint64(pass), seconds, false, "", false)
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: pass %d %s: incorrect run (%v)\n", pass, w.Name, err)
				return 1
			}
			for _, d := range endToEnd {
				key := w.Name + "/" + d.Name
				if values[key] == nil {
					values[key] = new([2][]float64)
				}
				values[key][set] = append(values[key][set], res.Metrics[d.Name].Value)
			}
		}
		fmt.Fprintf(os.Stderr, "bench: pass %d of %d done (set %c, seed %d)\n", pass+1, 2*n, 'A'+set, seed+uint64(pass))
	}

	failed := 0
	fmt.Printf("%-18s %-20s %12s %12s %8s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "gap", "iqr A", "iqr B", "iqr all", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := values[w.Name+"/"+d.Name]
			ma, mb := median(v[0]), median(v[1])
			gap := (mb - ma) / ma
			all := spread(append(append([]float64{}, v[0]...), v[1]...))
			bound := bounds[d.Name]
			verdict := "PASS"
			if math.Abs(gap) > bound || all > bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-18s %-20s %12.4f %12.4f %+7.2f%% %7.2f%% %7.2f%% %7.2f%% %6.1f%%  %s\n",
				w.Name, d.Name, ma, mb, 100*gap, 100*spread(v[0]), 100*spread(v[1]), 100*all, 100*bound, verdict)
		}
	}
	raw, _ := json.Marshal(values)
	fmt.Printf("%s\n", raw)
	if failed > 0 {
		fmt.Printf("%d pairings FAIL\n", failed)
		return 1
	}
	return 0
}
