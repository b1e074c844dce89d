package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a "p99" read from fewer than 1,000 samples would be the maximum or close
// to it, which is noise, so the tail is the highest percentile that still
// has at least this many samples beyond it.
const minBeyond = 10

// summary is the distribution of one timed operation.
type summary struct {
	N     int
	P50   time.Duration
	Tail  time.Duration // highest percentile with >= minBeyond samples beyond it
	TailQ float64       // that percentile, in percent (99 when N >= 1,000)
}

// summarize sorts a copy of samples and reports the median and the tail.
func summarize(samples []time.Duration) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx, q := tailIndex(len(s))
	return summary{N: len(s), P50: s[(len(s)-1)/2], Tail: s[idx], TailQ: q}
}

// tailIndex returns the index (into n sorted samples) of the reported tail
// and the percentile it stands for: the 99th percentile by nearest rank, or
// the highest rank that leaves minBeyond samples above it when n is too
// small for that. With n <= minBeyond no rank qualifies and the slowest
// sample is reported, flagged by q = 100.
func tailIndex(n int) (idx int, q float64) {
	if n <= minBeyond {
		return n - 1, 100
	}
	idx = int(math.Ceil(0.99*float64(n))) - 1 // nearest rank
	if limit := n - 1 - minBeyond; idx > limit {
		idx = limit
	}
	return idx, 100 * float64(idx+1) / float64(n)
}

// windowed splits samples by due time into consecutive windows holding
// about 1,000 samples each (so each window's tail is a true p99) and
// reports the median of the per-window medians and of the per-window
// tails. A burst of noise then moves a few windows instead of the whole
// run. With fewer than three windows it reports the whole run's median and
// tail.
func windowed(lat, due []time.Duration, rate float64) (p50, tail time.Duration) {
	all := summarize(lat)
	if rate <= 0 || len(lat) == 0 {
		return all.P50, all.Tail
	}
	window := time.Duration(float64(time.Second) * math.Ceil(1000/rate))
	buckets := map[int][]time.Duration{}
	for i, d := range lat {
		buckets[int(due[i]/window)] = append(buckets[int(due[i]/window)], d)
	}
	var p50s, tails []float64
	for _, b := range buckets {
		if len(b) > minBeyond {
			s := summarize(b)
			p50s = append(p50s, float64(s.P50))
			tails = append(tails, float64(s.Tail))
		}
	}
	if len(tails) < 3 {
		return all.P50, all.Tail
	}
	return time.Duration(median(p50s)), time.Duration(median(tails))
}

// median of a float slice (mean of the two middle values for even n).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func medianDuration(v []time.Duration) time.Duration {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// backlogGrowing reports whether an open-loop step fell behind for good:
// the generator's lateness (actual send time minus due time, in send order)
// in the last third of the step is both above slack and more than twice
// the lateness of the first third. A system that keeps up shows flat
// lateness; one past its capacity shows lateness that rises with time.
func backlogGrowing(lateness []time.Duration, slack time.Duration) bool {
	n := len(lateness)
	if n < 9 {
		return false
	}
	first := medianDuration(lateness[:n/3])
	last := medianDuration(lateness[n-n/3:])
	return last > slack && last > 2*first
}
