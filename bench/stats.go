package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 0.5)
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailRule is the reporting rule for timings: the median always, plus
// the highest percentile that still has at least ten samples beyond it.
// Below 40 samples no percentile above the median qualifies, and below 20
// not even the median does — it is reported alone, with the count beside
// it, and no tail is claimed.
var tailRule = []struct {
	name string
	p    float64
	minN int
}{
	{"p99", 0.99, 1000},
	{"p95", 0.95, 200},
	{"p90", 0.90, 100},
	{"p75", 0.75, 40},
}

// tail returns the highest percentile xs supports under tailRule; ok is
// false when only the median may be reported.
func tail(xs []float64) (name string, v float64, ok bool) {
	for _, r := range tailRule {
		if len(xs) >= r.minN {
			return r.name, percentile(xs, r.p), true
		}
	}
	return "", 0, false
}

// timingSummary renders "p50 (p90 x) n=N" for the human-readable output.
func timingSummary(xs []float64, unit string) string {
	s := fmt.Sprintf("%.4f %s", median(xs), unit)
	if name, v, ok := tail(xs); ok {
		s += fmt.Sprintf(" (%s %.4f)", name, v)
	}
	return s + fmt.Sprintf(" n=%d", len(xs))
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 {
		return (time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond).Seconds()
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB returns the process's resident high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
