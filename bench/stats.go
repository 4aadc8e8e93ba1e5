package main

import (
	"syscall"
	"time"

	"hyparview/internal/metrics"
)

// median is the 50th percentile by the repository's interpolating rule. It
// is how a metric's per-slice values become the workload's value: an
// interference burst shorter than half the run cannot move it (noise rule 2).
func median(xs []float64) float64 { return metrics.Percentile(xs, 50) }

// perSlice computes the p-th percentile inside every non-empty slice.
func perSlice(slices [][]float64, p float64) []float64 {
	per := make([]float64, 0, len(slices))
	for _, samples := range slices {
		if len(samples) > 0 {
			per = append(per, metrics.Percentile(samples, p))
		}
	}
	return per
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	return (metrics.Percentile(xs, 75) - metrics.Percentile(xs, 25)) / median(xs)
}

// rusage reads the process's resource usage; the zero value stands in if the
// kernel refuses, which getrusage(RUSAGE_SELF) never does.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is KiB on
// Linux).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// sleepUntil parks the calling goroutine until t.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
