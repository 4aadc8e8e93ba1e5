// Command bench is the repository's end-to-end benchmark: five long
// workloads over real loopback sockets and both simulator engines, each
// reduced to slice medians (and, on the simulator, read against a yardstick
// run alongside) so that identical code repeats within a tenth.
// BENCHMARK.json at the repository root is its contract; README.md in this
// directory says what every number means.
//
//	go run ./bench -workload all -seed 1            # every workload, end-to-end metrics
//	go run ./bench -workload tcp_churn -trace 1     # one workload, per-layer metrics
//	go run ./bench -workload all -trace 1 -spans f  # both runs of each, spans to f.<workload>.jsonl
//	go run ./bench -aa 5                            # A/A: two interleaved sets of 5 passes
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// processStart anchors setup_s (process start → window start) and every
// span and due time of the run.
var processStart = time.Now()

// measured is one reported value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports; it is also the JSON
// object printed as the run's last line.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	failures  []string            // which correctness checks failed
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]measured{}}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = measured{Value: v} }

// fail records a failed correctness check and returns the result, now marked
// incorrect.
func (r *result) fail(format string, args ...any) *result {
	r.Correct = false
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	return r
}

// runWorkload runs one workload in this process. A non-nil log makes it the
// traced run.
func runWorkload(name string, prof profile, seed uint64, seconds int, log *spanLog) *result {
	if _, ok := tcpSpecs[name]; ok {
		return runTCP(name, prof, seed, seconds, log)
	}
	return runSim(name, prof, seed, seconds, log)
}

// report prints one line per metric of the run's kind — every name of the
// kind exactly once, 0 for a layer off this workload's path — then trims the
// result to that kind and stamps units.
func report(w *bufio.Writer, workload string, res *result, traced bool) {
	defs, kind := endToEnd, "end_to_end"
	if traced {
		defs, kind = perLayer, "per_layer"
	}
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		m := measured{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.fail("metric %s is not finite", d.Name)
			m.Value = 0
		}
		out[d.Name] = m
		line, _ := json.Marshal(map[string]any{"workload": workload, "metric": d.Name, "value": m.Value, "unit": d.Unit, "kind": kind})
		fmt.Fprintf(w, "%s\n", line)
	}
	res.Metrics = out
}

func envLine() string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	line, _ := json.Marshal(map[string]any{"env": map[string]any{
		"commit": commit, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "kernel": strings.TrimSpace(string(kernel)),
	}})
	return string(line)
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all (each in its own process)")
	seed := flag.Uint64("seed", 1, "picks victims, payload bytes, agent seeds and sim.Options.Seed")
	seconds := flag.Int("seconds", 18, "measured window: seconds of schedule on TCP, a proportional fixed count on sim")
	trace := flag.Int("trace", 0, "1: traced run, printing the per-layer metrics instead of the end-to-end ones")
	spans := flag.String("spans", "", "with -trace 1, write the span log to this file (JSON lines)")
	list := flag.Bool("list", false, "print the workloads and metrics as JSON and exit")
	rotate := flag.Bool("rotate", false, "tcp_tree_large publishes round-robin instead of from one agent: reproduces the Plumtree oscillation finding, not part of the gate")
	aa := flag.Int("aa", 0, "run this many passes in each of two interleaved sets of the same binary and compare them")
	flag.Parse()

	if *list {
		out, _ := json.MarshalIndent(map[string]any{"workloads": workloads, "end_to_end": endToEnd, "per_layer": perLayer}, "", "  ")
		fmt.Println(string(out))
		return
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if *aa > 0 {
		os.Exit(runAA(*aa, *seed, *seconds))
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace == 1, *spans))
	}
	if !slices.ContainsFunc(workloads, func(w workloadDef) bool { return w.Name == *workload }) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *workload)
		os.Exit(2)
	}

	if *rotate {
		spec := tcpSpecs["tcp_tree_large"]
		spec.singleSource = false
		tcpSpecs["tcp_tree_large"] = spec
	}
	var log *spanLog
	if *trace == 1 {
		log = &spanLog{epoch: processStart}
	}
	res := runWorkload(*workload, fullProfile, *seed, *seconds, log)
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(w, envLine())
	report(w, *workload, res, log != nil)
	if log != nil && *spans != "" {
		if err := log.write(*spans); err != nil {
			res.fail("%v", err)
		}
	}
	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", *workload, f)
	}
	last, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", last)
	w.Flush()
	if !res.Correct {
		os.Exit(1)
	}
}

// child re-runs this binary for one workload — peak RSS is per process — and
// returns its last line parsed. The child's other lines pass through.
func child(name string, seed uint64, seconds int, traced bool, spans string, echo bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
	if traced {
		args = append(args, "-trace", "1")
		if spans != "" {
			args = append(args, "-spans", spans+"."+name+".jsonl")
		}
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if echo {
		for _, l := range lines[:len(lines)-1] {
			if !bytes.HasPrefix(l, []byte(`{"env"`)) {
				fmt.Printf("%s\n", l)
			}
		}
	}
	res := new(result)
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v, %v)", name, runErr, err)
	}
	return res, nil
}

// runAll runs every workload, each in a process of its own. With traced set
// each workload runs twice: untraced for the end-to-end metrics, then traced
// for the per-layer ones.
func runAll(seed uint64, seconds int, traced bool, spans string) int {
	fmt.Println(envLine())
	total := newResult()
	passes := []bool{false}
	if traced {
		passes = append(passes, true)
	}
	for _, w := range workloads {
		for _, tracedPass := range passes {
			res, err := child(w.Name, seed, seconds, tracedPass, spans, true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				total.Correct = false
				continue
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for name, m := range res.Metrics {
				total.Metrics[w.Name+"/"+name] = m
			}
		}
	}
	last, _ := json.Marshal(total)
	fmt.Printf("%s\n", last)
	if !total.Correct {
		return 1
	}
	return 0
}
