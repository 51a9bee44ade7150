package main

import (
	"bytes"
	"os"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// val builds one reported value.
func val(v float64, unit string) metric { return metric{Value: v, Unit: unit} }

// sorted returns an ascending copy of the samples.
func sorted(d []time.Duration) []time.Duration {
	out := slices.Clone(d)
	slices.Sort(out)
	return out
}

// quantile reads quantile p (0..1) from ascending samples, interpolating
// between neighbours; 0 for no samples.
func quantile(asc []time.Duration, p float64) time.Duration {
	if len(asc) == 0 {
		return 0
	}
	pos := p * float64(len(asc)-1)
	lo := int(pos)
	if lo+1 >= len(asc) {
		return asc[len(asc)-1]
	}
	frac := pos - float64(lo)
	return asc[lo] + time.Duration(frac*float64(asc[lo+1]-asc[lo]))
}

// supported reports whether at least ten of n samples lie beyond quantile
// p — the rule for which percentiles a sample may speak for.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

func median(d []time.Duration) time.Duration { return quantile(sorted(d), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sum(d []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssBytes reads the process's current resident set from /proc; 0 where
// /proc is unavailable.
func rssBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(data)
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// rssSampler polls the resident set until stopped and keeps the maximum:
// peak_rss_mb is the peak over the timed window, not the process's
// lifetime high-water mark, which set-up would own.
type rssSampler struct {
	stop chan struct{}
	done chan int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan int64)}
	go func() {
		peak := rssBytes()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, rssBytes())
			case <-s.stop:
				s.done <- max(peak, rssBytes())
				return
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the largest resident set it saw.
func (s *rssSampler) peak() int64 {
	close(s.stop)
	return <-s.done
}
