package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorting xs in
// place), or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(q*float64(len(xs)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is the middle value (mean of the two middle ones for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// durQuantile is quantile over durations, in the given unit.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

func durMedian(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usage is a process's CPU time (user + system, every thread it ever
// ran) and context switches, as the kernel accounts them for getrusage.
type usage struct {
	CPUNs int64 `json:"cpu_ns"`
	Ctxsw int64 `json:"ctxsw"`
}

func selfUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{CPUNs: ru.Utime.Nano() + ru.Stime.Nano(), Ctxsw: ru.Nvcsw + ru.Nivcsw}
}

// peakRSSKB is a live process's peak resident set (VmHWM) in kB.
func peakRSSKB(pid int) (int64, error) {
	return statusField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM:")
}

// statusField returns the first number after key in a /proc status file.
func statusField(path, key string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, key) {
			fs := strings.Fields(line[len(key):])
			if len(fs) == 0 {
				break
			}
			return strconv.ParseInt(fs[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}
